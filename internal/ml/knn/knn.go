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
// in ascending block order. Each query's arithmetic is pruned against
// one bound shared by every block and worker of the search: the
// nearest k-th distance any full heap has held so far, so a row
// farther than that is abandoned at the first partial-sum check that
// passes it. The bound only drops rows that cannot be in the answer,
// so results are identical for every worker count, every storage
// backend and every schedule; only the amount of arithmetic depends on
// timing.
package knn

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

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
// query are sorted by ascending distance (ties by index; a NaN
// distance sorts after every number). ctx cancels the scan within one
// reference block.
//
// Each query has a prune bound B, shared by every block and worker of
// the search: the smallest k-th-nearest distance any full block,
// group or root heap has held so far. It starts at +Inf and only
// falls.
//   - Publishing: a block publishes after its Block callback, the
//     reducer after every Merge into a group or root state. A publish
//     is a CAS-min of the heap top's distance, made only when that heap
//     holds k rows. A NaN top never publishes (w < old is false).
//   - Filling a heap (fewer than k kept): d2 = SqDistBounded(row, q, B),
//     pushed unless d2 > B. With B = +Inf this is an unbounded scan; a
//     NaN distance is pushed.
//   - Full heap with top distance worst: bound = min(worst, B) (B when
//     worst is NaN), and the row replaces the top iff it sorts before
//     worst and !(d2 > bound).
//
// Why it is exact: B is the k-th distance of k real rows, none NaN. A
// row with distance > B has k rows strictly nearer and cannot be in
// the answer; a row at exactly B is computed exactly and kept, because
// it may still win on index. Every row of the true answer therefore
// survives in its block heap, and the merged top k is the answer of an
// unpruned scan bit for bit, for any worker count and any timing.
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
	bounds := make([]atomic.Uint64, qn) // float64 bits of each query's B
	for i := 0; i < qn; i++ {
		qRows[i] = queries.RawRow(i)
		bounds[i].Store(math.Float64bits(math.Inf(1)))
	}
	publish := func(hs *heapSet) {
		for qi, h := range hs.heaps {
			if len(h) == k {
				lower(&bounds[qi], h[0].SqDist)
			}
		}
	}
	// Per-block bounded max-heaps per query; merged in block order, so
	// the kept set is the one a single unpruned sequential scan would
	// keep. A merged block's heaps are emptied and filled again, so a
	// search allocates a heap set per scan worker, not per block.
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
					bound := math.Float64frombits(bounds[qi].Load())
					if len(*h) < k {
						if d2 := blas.SqDistBounded(row, qRows[qi], bound); !(d2 > bound) {
							h.push(Neighbor{Index: ri, SqDist: d2})
						}
						continue
					}
					// A row past the bound is abandoned mid-scan; a
					// kept one (within it) has its exact distance.
					worst := (*h)[0].SqDist
					if worst < bound {
						bound = worst
					}
					if d2 := blas.SqDistBounded(row, qRows[qi], bound); !(d2 > bound) && nearer(d2, worst) {
						h.replaceTop(Neighbor{Index: ri, SqDist: d2})
					}
				}
			}
			publish(hs)
		},
		Merge: func(dst, src *heapSet) {
			for qi := range dst.heaps {
				h := &dst.heaps[qi]
				for _, nb := range src.heaps[qi] {
					if len(*h) < k {
						h.push(nb)
					} else if nearer(nb.SqDist, (*h)[0].SqDist) {
						h.replaceTop(nb)
					}
				}
			}
			publish(dst)
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

// lower lowers the prune bound b (float64 bits) to w, if w is smaller.
func lower(b *atomic.Uint64, w float64) {
	for {
		old := b.Load()
		if !(w < math.Float64frombits(old)) || b.CompareAndSwap(old, math.Float64bits(w)) {
			return
		}
	}
}

// nearer orders distances with NaN after every number, +Inf included,
// so that before is a total order: a NaN can neither freeze a heap nor
// hide the rows beneath it.
func nearer(a, b float64) bool { return a < b || math.IsNaN(b) && !math.IsNaN(a) }

// before is the result order: nearer first, equal distances by lower
// reference index.
func (n Neighbor) before(o Neighbor) bool {
	if nearer(n.SqDist, o.SqDist) {
		return true
	}
	if nearer(o.SqDist, n.SqDist) {
		return false
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
