package trace

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/store"
)

func pageTrace(pages ...int64) *Trace {
	return &Trace{PageSize: 4096, Pages: pages}
}

func TestReuseDistancesBasic(t *testing.T) {
	// a b a: second 'a' has one distinct page (b) in between.
	tr := pageTrace(0, 1, 0)
	d := tr.ReuseDistances()
	if d[0] != ColdMiss || d[1] != ColdMiss {
		t.Errorf("cold misses wrong: %v", d)
	}
	if d[2] != 1 {
		t.Errorf("distance = %d want 1", d[2])
	}
}

func TestReuseDistancesImmediateRepeat(t *testing.T) {
	tr := pageTrace(5, 5, 5)
	d := tr.ReuseDistances()
	if d[1] != 0 || d[2] != 0 {
		t.Errorf("immediate repeats: %v", d)
	}
}

func TestReuseDistancesCyclicScan(t *testing.T) {
	// Scanning P pages twice: every second-pass reference has
	// distance P-1 (all other pages touched in between).
	const p = 8
	var pages []int64
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < p; i++ {
			pages = append(pages, i)
		}
	}
	d := pageTrace(pages...).ReuseDistances()
	for i := p; i < 2*p; i++ {
		if d[i] != p-1 {
			t.Errorf("second pass ref %d: distance %d want %d", i, d[i], p-1)
		}
	}
}

func TestMissRatioCurveCyclicScan(t *testing.T) {
	// The canonical LRU cliff: a repeated scan of P pages hits 0%
	// with cache >= P and ~100% below — the mechanism behind the
	// Figure 1a knee.
	const p = 16
	var pages []int64
	for pass := 0; pass < 4; pass++ {
		for i := int64(0); i < p; i++ {
			pages = append(pages, i)
		}
	}
	tr := pageTrace(pages...)
	curve, err := tr.MissRatioCurve([]int64{1, p - 1, p, p + 1})
	if err != nil {
		t.Fatal(err)
	}
	// Below capacity: everything misses (cold + evict-before-reuse).
	if curve[0].MissRatio != 1 || curve[1].MissRatio != 1 {
		t.Errorf("undersized cache miss ratios: %v %v", curve[0].MissRatio, curve[1].MissRatio)
	}
	// At capacity: only the cold first pass misses (16 of 64).
	if want := 0.25; math.Abs(curve[2].MissRatio-want) > 1e-12 {
		t.Errorf("exact-fit miss ratio = %v want %v", curve[2].MissRatio, want)
	}
	if curve[3].MissRatio != curve[2].MissRatio {
		t.Errorf("oversized cache should match exact fit")
	}
	if knee := KneePages(curve, 0.5); knee != p {
		t.Errorf("knee = %d pages want %d", knee, p)
	}
}

func TestMissRatioCurveValidation(t *testing.T) {
	if _, err := pageTrace().MissRatioCurve([]int64{1}); err == nil {
		t.Error("accepted empty trace")
	}
	if _, err := pageTrace(1).MissRatioCurve([]int64{0}); err == nil {
		t.Error("accepted cache size 0")
	}
}

func TestSequentialFraction(t *testing.T) {
	if got := pageTrace(0, 1, 2, 3).SequentialFraction(); got != 1 {
		t.Errorf("scan fraction = %v", got)
	}
	if got := pageTrace(0, 7, 3, 9).SequentialFraction(); got != 0 {
		t.Errorf("random fraction = %v", got)
	}
	if got := pageTrace(5).SequentialFraction(); got != 1 {
		t.Errorf("single ref fraction = %v", got)
	}
}

func TestDistinctPages(t *testing.T) {
	if got := pageTrace(1, 2, 1, 3, 2).DistinctPages(); got != 3 {
		t.Errorf("distinct = %d", got)
	}
}

func TestRecorderCapturesMatrixScan(t *testing.T) {
	// Instrument a real training-style scan: a matrix over a
	// recorded store; MulVec produces a pure sequential trace.
	const rows, cols = 32, 64 // 64 elements = 512 B per row, 8 rows/page
	h := store.NewHeap(rows * cols)
	rec := NewRecorder(h, 4096)
	x, err := mat.NewDenseStore(rec, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, rows)
	v := make([]float64, cols)
	x.MulVec(y, v)
	tr := rec.Trace()
	if tr.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	if got := tr.SequentialFraction(); got != 1 {
		t.Errorf("matrix scan sequential fraction = %v", got)
	}
	if got := tr.DistinctPages(); got != rows*cols*8/4096 {
		t.Errorf("distinct pages = %d want %d", got, rows*cols*8/4096)
	}

	// Second scan: the recorder predicts the two-regime behaviour.
	x.MulVec(y, v)
	pages := int64(tr.DistinctPages())
	curve, err := tr.MissRatioCurve([]int64{pages / 2, pages, pages * 2})
	if err != nil {
		t.Fatal(err)
	}
	if !(curve[0].MissRatio > curve[1].MissRatio) {
		t.Errorf("undersized cache (%v) not worse than fitting cache (%v)",
			curve[0].MissRatio, curve[1].MissRatio)
	}
}

func TestRecorderForwardsWrites(t *testing.T) {
	h := store.NewHeap(1024)
	rec := NewRecorder(h, 0) // default page size
	rec.TouchWrite(0, 512)
	if rec.Trace().Len() != 1 {
		t.Errorf("write refs = %d want 1", rec.Trace().Len())
	}
	if h.Stats().BytesTouched != 512*8 {
		t.Errorf("underlying store not forwarded: %d", h.Stats().BytesTouched)
	}
}

// TestRecorderParallelScanRecordsEveryPage: a 4-worker scan over a
// Recorder (run it under -race) records the same multiset of pages as
// the 1-worker scan; only the order may differ.
func TestRecorderParallelScanRecordsEveryPage(t *testing.T) {
	const rows, cols = 1024, 64 // 512 KiB: several 256 KiB blocks
	record := func(workers int) []int64 {
		rec := NewRecorder(store.NewHeap(rows*cols), 4096)
		scan := exec.RowScan{Store: rec, Rows: rows, Cols: cols, Stride: cols, Workers: workers, BlockBytes: 16 << 10}
		if _, err := exec.ForEachRow(scan, func(int, []float64) {}); err != nil {
			t.Fatal(err)
		}
		pages := rec.Trace().Pages
		slices.Sort(pages)
		return pages
	}
	one, four := record(1), record(4)
	if len(one) == 0 || !slices.Equal(one, four) {
		t.Errorf("4-worker scan recorded %d pages, 1-worker %d; multisets differ", len(four), len(one))
	}
}

// Property: miss ratio is monotonically non-increasing in cache size
// (LRU is a stack algorithm — Mattson's inclusion property).
func TestPropertyMissRatioMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		pages := make([]int64, len(raw))
		for i, v := range raw {
			pages[i] = int64(v % 32)
		}
		tr := pageTrace(pages...)
		sizes := []int64{1, 2, 4, 8, 16, 32, 64}
		curve, err := tr.MissRatioCurve(sizes)
		if err != nil {
			return false
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].MissRatio > curve[i-1].MissRatio+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the reuse-distance based miss count at capacity C equals
// a direct LRU simulation's miss count.
func TestPropertyMatchesDirectLRUSimulation(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		capacity := int64(capRaw%16) + 1
		pages := make([]int64, len(raw))
		for i, v := range raw {
			pages[i] = int64(v % 24)
		}
		tr := pageTrace(pages...)
		curve, err := tr.MissRatioCurve([]int64{capacity})
		if err != nil {
			return false
		}
		// Direct LRU simulation.
		type node struct{ page int64 }
		var stack []node
		misses := 0
		for _, p := range pages {
			found := -1
			for i, nd := range stack {
				if nd.page == p {
					found = i
					break
				}
			}
			if found < 0 {
				misses++
				stack = append([]node{{p}}, stack...)
				if int64(len(stack)) > capacity {
					stack = stack[:capacity]
				}
			} else {
				nd := stack[found]
				stack = append(stack[:found], stack[found+1:]...)
				stack = append([]node{nd}, stack...)
			}
		}
		want := float64(misses) / float64(len(pages))
		return math.Abs(curve[0].MissRatio-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
