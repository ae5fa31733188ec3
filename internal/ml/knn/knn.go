// Package knn implements brute-force k-nearest-neighbor search and
// classification. Neighbor search is mlpack's flagship workload
// (allkNN in the mlpack paper the authors built M3 on), and the
// brute-force variant is the perfect M3 citizen: answering a batch of
// queries costs exactly one scan of the (possibly mapped) reference
// matrix, regardless of batch size.
//
// The scan runs blocked on the shared chunked-execution layer
// (internal/exec): reference blocks stream on a worker pool, each
// block keeps its own per-query bounded heaps, and block heaps merge
// in ascending block order — so results are identical for every
// worker count and every storage backend, and blas.NearestRow-style
// batch queries parallelize over the reference matrix.
package knn

import (
	"context"
	"fmt"
	"sort"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Options configures a search or classification scan.
type Options struct {
	// FitOptions carries the shared training surface; only Workers is
	// consulted (<= 0: engine hint, then NumCPU).
	fit.FitOptions
}

// Neighbor is one search result.
type Neighbor struct {
	// Index is the reference row.
	Index int
	// SqDist is the squared Euclidean distance to the query.
	SqDist float64
}

// heapSet is one block's per-query bounded max-heaps.
type heapSet struct {
	heaps []nheap
}

// Search finds the k nearest reference rows for each query row using
// one blocked scan of refs on the shared execution layer. Results per
// query are sorted by ascending distance (ties by index). ctx cancels
// the scan within one reference block.
func Search(ctx context.Context, refs, queries *mat.Dense, k int, opts Options) ([][]Neighbor, error) {
	n, d := refs.Dims()
	qn, qd := queries.Dims()
	if d != qd {
		return nil, fmt.Errorf("knn: reference dim %d != query dim %d", d, qd)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("knn: k = %d outside [1,%d]", k, n)
	}

	qRows := make([][]float64, qn)
	for i := 0; i < qn; i++ {
		qRows[i] = queries.RawRow(i)
	}
	// Per-block bounded max-heaps per query; merged in block order, so
	// the kept set is the one a single sequential scan would keep. A
	// merged block's heaps are emptied and filled again, so a search
	// allocates a heap set per scan worker, not per block.
	acc, _, err := exec.Aggregate[*heapSet]{
		Name:  "knn neighbors",
		Alloc: func() *heapSet { return &heapSet{heaps: make([]nheap, qn)} },
		Reset: func(hs *heapSet) {
			for qi := range hs.heaps {
				hs.heaps[qi] = hs.heaps[qi][:0]
			}
		},
		Block: func(hs *heapSet, lo, hi int, block []float64, stride int) {
			for ri := lo; ri < hi; ri++ {
				row := block[(ri-lo)*stride : (ri-lo)*stride+d]
				for qi := range hs.heaps {
					h := &hs.heaps[qi]
					if len(*h) < k {
						h.push(Neighbor{Index: ri, SqDist: blas.SqDist(row, qRows[qi])})
						continue
					}
					// A row already past the worst kept neighbor is
					// abandoned mid-scan; a kept one (strictly nearer)
					// has its exact distance, so the heap is unchanged.
					worst := (*h)[0].SqDist
					if d2 := blas.SqDistBounded(row, qRows[qi], worst); d2 < worst {
						h.replaceTop(Neighbor{Index: ri, SqDist: d2})
					}
				}
			}
		},
		Merge: func(dst, src *heapSet) {
			for qi := range dst.heaps {
				h := &dst.heaps[qi]
				for _, nb := range src.heaps[qi] {
					if len(*h) < k {
						h.push(nb)
					} else if nb.SqDist < (*h)[0].SqDist {
						h.replaceTop(nb)
					}
				}
			}
		},
	}.Reduce(refs.ScanCtx(ctx, opts.Workers))
	if err != nil {
		return nil, err
	}

	out := make([][]Neighbor, qn)
	for qi := range acc.heaps {
		res := []Neighbor(acc.heaps[qi])
		sort.Slice(res, func(a, b int) bool { return res[a].before(res[b]) })
		out[qi] = res
	}
	return out, nil
}

// Classify predicts labels by majority vote among the k nearest
// labelled reference rows (ties resolve to the nearest class). ctx
// cancels the underlying search within one reference block.
func Classify(ctx context.Context, refs *mat.Dense, labels []int, queries *mat.Dense, k int, opts Options) ([]int, error) {
	if refs.Rows() != len(labels) {
		return nil, fmt.Errorf("knn: %d reference rows but %d labels", refs.Rows(), len(labels))
	}
	results, err := Search(ctx, refs, queries, k, opts)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(results))
	for qi, res := range results {
		votes := make(map[int]int)
		best, bestClass := 0, labels[res[0].Index]
		for _, nb := range res {
			c := labels[nb.Index]
			votes[c]++
			// Strictly-greater keeps the earliest (nearest-backed)
			// class on ties.
			if votes[c] > best {
				best, bestClass = votes[c], c
			}
		}
		out[qi] = bestClass
	}
	return out, nil
}

// before is the result order: nearer first, exact distance ties by
// lower reference index.
func (n Neighbor) before(o Neighbor) bool {
	//m3vet:allow floateq -- deterministic ordering needs exact distance ties
	if n.SqDist != o.SqDist {
		return n.SqDist < o.SqDist
	}
	return n.Index < o.Index
}

// nheap is a max-heap of neighbors in result order (top = worst kept:
// the farthest, and among equally far the highest index, so a tie at
// the k-th place keeps the lower indices). Rows arrive in ascending
// index, so a newcomer displaces the top only when strictly nearer.
type nheap []Neighbor

func (h *nheap) push(n Neighbor) {
	*h = append(*h, n)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[parent].before((*h)[i]) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *nheap) replaceTop(n Neighbor) {
	(*h)[0] = n
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && (*h)[largest].before((*h)[l]) {
			largest = l
		}
		if r < len(*h) && (*h)[largest].before((*h)[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
}
