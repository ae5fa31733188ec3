// Package trace records the page-access sequences of algorithms and
// analyzes their locality — the paper's §4 program: "extensively
// study the memory access patterns and locality of algorithms (e.g.,
// sequential scans vs random access) to better understand how they
// affect performance".
//
// The central tool is the Mattson reuse-distance analysis: from one
// recorded trace, MissRatioCurve computes the exact LRU miss ratio
// for every cache size simultaneously. In M3 terms this predicts,
// from a single small-scale instrumented run, where the Figure 1a
// knee will fall for any RAM budget — no re-running required.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"m3/internal/mmap"
	"m3/internal/store"
)

// Trace is a recorded sequence of page references.
type Trace struct {
	// PageSize is the granularity in bytes.
	PageSize int64
	// Pages is the reference string: one entry per page touch, in
	// access order.
	Pages []int64
}

// Recorder wraps a store.Store and appends every Touch/TouchWrite to
// a trace while forwarding to the underlying backend. It implements
// store.Store and is safe for concurrent use; a multi-worker scan
// records every page it touches, in the order the workers happen to
// touch them, so a study that needs the sequential reference string
// scans with one worker.
type Recorder struct {
	store.Store
	mu    sync.Mutex // guards trace.Pages
	trace Trace
}

// NewRecorder wraps s, recording at the given page size (default
// 4096).
func NewRecorder(s store.Store, pageSize int64) *Recorder {
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &Recorder{Store: s, trace: Trace{PageSize: pageSize}}
}

// record expands an element range into page references.
func (r *Recorder) record(start, n int) {
	if n <= 0 {
		return
	}
	first := int64(start) * 8 / r.trace.PageSize
	last := (int64(start+n)*8 - 1) / r.trace.PageSize
	r.mu.Lock()
	for p := first; p <= last; p++ {
		r.trace.Pages = append(r.trace.Pages, p)
	}
	r.mu.Unlock()
}

// Touch records and forwards.
func (r *Recorder) Touch(start, n int) float64 {
	r.record(start, n)
	return r.Store.Touch(start, n)
}

// TouchWrite records and forwards.
func (r *Recorder) TouchWrite(start, n int) float64 {
	r.record(start, n)
	return r.Store.TouchWrite(start, n)
}

// Advise forwards.
func (r *Recorder) Advise(a mmap.Advice) error { return r.Store.Advise(a) }

// Trace returns the recorded trace. It must not be read while a scan
// is still recording.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Len returns the number of recorded page references.
func (t *Trace) Len() int { return len(t.Pages) }

// DistinctPages returns the working-set size in pages.
func (t *Trace) DistinctPages() int {
	seen := make(map[int64]struct{})
	for _, p := range t.Pages {
		seen[p] = struct{}{}
	}
	return len(seen)
}

// SequentialFraction reports the fraction of references whose page is
// the same as or successor of the previous reference — a cheap
// locality fingerprint (1.0 for a pure scan).
func (t *Trace) SequentialFraction() float64 {
	if len(t.Pages) < 2 {
		return 1
	}
	seq := 0
	for i := 1; i < len(t.Pages); i++ {
		d := t.Pages[i] - t.Pages[i-1]
		if d == 0 || d == 1 {
			seq++
		}
	}
	return float64(seq) / float64(len(t.Pages)-1)
}

// ColdMiss marks a first-time reference in the reuse-distance array.
const ColdMiss = int64(-1)

// ReuseDistances computes the LRU stack distance of every reference:
// the number of distinct pages touched since the previous reference
// to the same page (ColdMiss for first touches). O(n log n) via a
// Fenwick tree over reference positions.
func (t *Trace) ReuseDistances() []int64 {
	n := len(t.Pages)
	out := make([]int64, n)
	bit := newFenwick(n)
	lastPos := make(map[int64]int, 1024)
	for i, page := range t.Pages {
		if prev, ok := lastPos[page]; ok {
			// Marks strictly between the two references are the
			// latest positions of the distinct pages touched in
			// between; an LRU cache of capacity C hits iff that
			// count is below C.
			out[i] = int64(bit.rangeSum(prev+1, i-1))
			bit.add(prev, -1)
		} else {
			out[i] = ColdMiss
		}
		bit.add(i, 1)
		lastPos[page] = i
	}
	return out
}

// fenwick is a binary indexed tree over positions.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// prefixSum returns sum of [0, i].
func (f *fenwick) prefixSum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum returns sum of [lo, hi] (0 if empty).
func (f *fenwick) rangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	s := f.prefixSum(hi)
	if lo > 0 {
		s -= f.prefixSum(lo - 1)
	}
	return s
}

// MissRatioPoint pairs a cache size with its exact LRU miss ratio.
type MissRatioPoint struct {
	CachePages int64
	MissRatio  float64
}

// MissRatioCurve evaluates the exact LRU miss ratio at each cache
// size (in pages) from the trace's reuse distances: a reference
// misses iff it is cold or its stack distance >= the cache size.
func (t *Trace) MissRatioCurve(cachePages []int64) ([]MissRatioPoint, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	dists := t.ReuseDistances()
	// Histogram distances once, then integrate per cache size.
	var cold int64
	hist := make(map[int64]int64)
	for _, d := range dists {
		if d == ColdMiss {
			cold++
		} else {
			hist[d]++
		}
	}
	keys := make([]int64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	out := make([]MissRatioPoint, 0, len(cachePages))
	total := float64(len(dists))
	for _, c := range cachePages {
		if c < 1 {
			return nil, fmt.Errorf("trace: non-positive cache size %d", c)
		}
		// Misses: cold + references with distance >= c.
		misses := cold
		for _, k := range keys {
			if k >= c {
				misses += hist[k]
			}
		}
		out = append(out, MissRatioPoint{CachePages: c, MissRatio: float64(misses) / total})
	}
	return out, nil
}

// KneePages estimates the cache size (in pages) at which the miss
// ratio first drops below threshold — the predicted RAM requirement
// for in-memory behaviour. Returns 0 when no evaluated size achieves
// it.
func KneePages(curve []MissRatioPoint, threshold float64) int64 {
	for _, p := range curve {
		if p.MissRatio < threshold {
			return p.CachePages
		}
	}
	return 0
}
