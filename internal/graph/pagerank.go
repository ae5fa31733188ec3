package graph

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/mmap"
)

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	// Damping is the teleport factor (default 0.85).
	Damping float64
	// MaxIterations bounds power iterations (default 100).
	MaxIterations int
	// Tol stops when the L1 change between iterations falls below it
	// (default 1e-9).
	Tol float64
	// Workers sizes the chunked-execution pool for the per-iteration
	// edge scan (<= 0: runtime.NumCPU(), 1: sequential). Ranks are
	// identical for every value.
	Workers int
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping <= 0 || o.Damping >= 1 {
		o.Damping = 0.85
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o
}

// edgeBytes is the on-disk footprint of one (src, dst) edge pair.
const edgeBytes = 16

// PageRank computes node ranks by power iteration over the edge list.
// Each iteration is one blocked scan of the (possibly mapped) edges
// on the shared chunked-execution layer: edge blocks run on a worker
// pool, each block scatters into its own partial rank vector, and
// partials merge in ascending block order — so ranks are bit-identical
// for any worker count. When the edge list is memory-mapped, each
// worker issues WillNeed advice for the following edge block before
// scanning its own, overlapping page-in with compute — the access
// pattern that made the MMap work [3] viable on a PC, and the same
// pattern M3's ML workloads exhibit.
//
// ctx cancels the computation within one edge block; the error is
// then ctx.Err(). A nil ctx never cancels.
func PageRank(ctx context.Context, g *Graph, opts PageRankOptions) ([]float64, int, error) {
	o := opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	n := g.Nodes
	// Each block reduces through its own n-length partial vector, so
	// blocks must hold at least ~n edges: zeroing + merging the
	// partial then costs O(1) amortized per edge instead of O(n) per
	// tiny block. The partition still depends only on the graph shape,
	// never on the worker count — determinism is preserved.
	blockBytes := exec.DefaultBlockBytes
	if minBytes := int(n) * edgeBytes; blockBytes < minBytes {
		blockBytes = minBytes
	}
	blocks := exec.Partition(int(g.EdgeCount()), edgeBytes, blockBytes)

	// Out-degrees: one scan.
	outDeg := make([]int64, n)
	for i := int64(0); i < g.EdgeCount(); i++ {
		src, _ := g.Edge(i)
		outDeg[src]++
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}

	for iter := 1; iter <= o.MaxIterations; iter++ {
		base := (1 - o.Damping) / float64(n)
		// Dangling mass is redistributed uniformly (standard fix).
		var dangling float64
		for v := int64(0); v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
		}
		danglingShare := o.Damping * dangling / float64(n)
		for i := range next {
			next[i] = base + danglingShare
		}
		// One blocked edge scan; per-block partial vectors (recycled:
		// a scan allocates 2×workers of them, not one per block) reduce
		// in block order into next.
		contrib, err := exec.MapReduce(ctx, blocks, exec.Workers(o.Workers),
			func() []float64 { return make([]float64, n) },
			func(part []float64) { clear(part) },
			func(part []float64, b exec.Block) {
				g.adviseEdges(mmap.WillNeed, b.Hi, b.Hi+b.Len())
				for i := b.Lo; i < b.Hi; i++ {
					src, dst := g.Edge(int64(i))
					part[dst] += o.Damping * rank[src] / float64(outDeg[src])
				}
			},
			func(dst, src []float64) { blas.Axpy(1, src, dst) })
		if err != nil {
			return nil, iter - 1, err
		}
		blas.Axpy(1, contrib, next)
		// L1 convergence check.
		var delta float64
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < o.Tol {
			return rank, iter, nil
		}
	}
	return rank, o.MaxIterations, nil
}

// adviseEdges forwards an madvise hint for edges [lo, hi) when the
// edge list is memory-mapped (no-op for in-memory graphs).
func (g *Graph) adviseEdges(a mmap.Advice, lo, hi int) {
	if g.region == nil || lo >= hi || int64(lo) >= g.EdgeCount() {
		return
	}
	off := int64(graphHeaderSize) + int64(lo)*edgeBytes
	_ = g.region.AdviseRange(a, off, int64(hi-lo)*edgeBytes)
}

// TopK returns the indices of the k highest-ranked nodes in
// descending rank order (simple selection; k is small in practice).
func TopK(rank []float64, k int) []int64 {
	if k > len(rank) {
		k = len(rank)
	}
	taken := make([]bool, len(rank))
	out := make([]int64, 0, k)
	for len(out) < k {
		best, bi := math.Inf(-1), -1
		for i, r := range rank {
			if !taken[i] && r > best {
				best, bi = r, i
			}
		}
		taken[bi] = true
		out = append(out, int64(bi))
	}
	return out
}

// ConnectedComponents labels weakly connected components by iterative
// label propagation over edge scans (both directions per edge),
// converging when a full scan changes nothing — the second algorithm
// evaluated by the MMap prior work. Returns component labels (the
// minimum node id in each component) and the number of scans used.
func ConnectedComponents(g *Graph) ([]int64, int, error) {
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	label := make([]int64, g.Nodes)
	for i := range label {
		label[i] = int64(i)
	}
	scans := 0
	for {
		scans++
		changed := false
		for i := int64(0); i < g.EdgeCount(); i++ {
			src, dst := g.Edge(i)
			switch {
			case label[src] < label[dst]:
				label[dst] = label[src]
				changed = true
			case label[dst] < label[src]:
				label[src] = label[dst]
				changed = true
			}
		}
		if !changed {
			return label, scans, nil
		}
		if scans > int(g.Nodes)+1 {
			return nil, scans, fmt.Errorf("graph: component propagation did not converge")
		}
	}
}

// ComponentCount returns the number of distinct labels.
func ComponentCount(labels []int64) int {
	seen := make(map[int64]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
