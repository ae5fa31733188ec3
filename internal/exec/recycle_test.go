package exec_test

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"m3/internal/exec"
)

// tracked is a partial state that knows whose hands it is in: the
// block that is filling it (owner), whether it has been merged since
// it was last made zero, and a sum whose bits depend on the merge
// association. The fields are plain on purpose — two goroutines
// holding one state is a data race the race detector reports.
type tracked struct {
	sum    float64
	owner  int // block's first row + 1 while a block holds it
	merged bool
}

// ledger counts what a scan does with its states.
type ledger struct {
	t      *testing.T
	allocs atomic.Int64
	hold   func(lo int) // runs inside every block, state in hand
	order  []int        // src.owner of every block merge, in merge order
}

// aggregate sums column 0 through tracked states, checking at every
// step that a state is in exactly one place.
func (l *ledger) aggregate(recycle bool) exec.Aggregate[*tracked] {
	agg := exec.Aggregate[*tracked]{
		Name: "tracked sum",
		Alloc: func() *tracked {
			l.allocs.Add(1)
			return &tracked{}
		},
		Block: func(st *tracked, lo, hi int, block []float64, stride int) {
			if st.owner != 0 || st.merged || st.sum != 0 {
				l.t.Errorf("block %d was handed a state that is not zero: %+v", lo, *st)
			}
			st.owner = lo + 1
			if l.hold != nil {
				l.hold(lo)
			}
			for i := lo; i < hi; i++ {
				st.sum += block[(i-lo)*stride]
			}
			if st.owner != lo+1 {
				l.t.Errorf("block %d: state taken by block %d while in hand", lo, st.owner-1)
			}
		},
		Merge: func(dst, src *tracked) {
			if src.merged {
				l.t.Errorf("state of block %d merged twice", src.owner-1)
			}
			src.merged = true
			if src.owner != 0 { // a block state; group states have no owner
				l.order = append(l.order, src.owner)
			}
			dst.sum += src.sum
		},
	}
	if recycle {
		agg.Reset = func(st *tracked) { *st = tracked{} }
	}
	return agg
}

// smallBlockScan cuts its rows into 16-row blocks, so that a thousand
// rows already make several windows' worth.
func smallBlockScan(rows int) exec.RowScan {
	s, _ := sumScan(rows, 32)
	s.BlockBytes = 4096
	return s
}

// TestScanAllocatesAWindowNotARow: with a Reset, the states a scan
// allocates are bounded by the worker window — block states, one group
// state and the root — whether it has a thousand rows or sixty-four
// thousand, and the root is the one an allocate-per-block scan gives.
func TestScanAllocatesAWindowNotARow(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		var perRows []int64
		for _, rows := range []int{1000, 64000} {
			s := smallBlockScan(rows)
			s.Workers = workers
			blocks := len(s.Blocks())

			plain := &ledger{t: t}
			want, _, err := plain.aggregate(false).Reduce(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := plain.allocs.Load(); got < int64(blocks) {
				t.Fatalf("workers=%d rows=%d: %d allocations without a Reset, want one per block (%d)", workers, rows, got, blocks)
			}

			l := &ledger{t: t}
			got, _, err := l.aggregate(true).Reduce(s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.sum) != math.Float64bits(want.sum) {
				t.Errorf("workers=%d rows=%d: recycled root %v, allocated root %v", workers, rows, got.sum, want.sum)
			}
			bound := int64(min(2*workers, blocks) + 2)
			if n := l.allocs.Load(); n > bound {
				t.Errorf("workers=%d rows=%d: %d states allocated over %d blocks, want <= %d", workers, rows, n, blocks, bound)
			}
			perRows = append(perRows, l.allocs.Load())
		}
		if perRows[0] != perRows[1] {
			t.Errorf("workers=%d: %d states for 1 k rows, %d for 64 k: the count follows the rows", workers, perRows[0], perRows[1])
		}
	}
}

// TestMapReduceRecyclesBlockStates is the same bound one layer down,
// where the dataset generator sits.
func TestMapReduceRecyclesBlockStates(t *testing.T) {
	blocks := exec.RowScan{Rows: 1 << 16, Cols: 1, BlockBytes: 4096}.Blocks()
	sum := func(workers int, reset func(*float64)) (float64, int64) {
		var allocs atomic.Int64
		got, err := exec.MapReduce(context.Background(), blocks, workers,
			func() *float64 { allocs.Add(1); return new(float64) }, reset,
			func(s *float64, b exec.Block) {
				for i := b.Lo; i < b.Hi; i++ {
					*s += 1.0 / float64(i+1)
				}
			},
			func(dst, src *float64) { *dst += *src })
		if err != nil {
			t.Fatal(err)
		}
		return *got, allocs.Load()
	}
	want, n := sum(1, nil)
	if n != int64(len(blocks))+1 {
		t.Fatalf("%d allocations without a reset, want %d", n, len(blocks)+1)
	}
	for _, workers := range []int{1, 2, 5} {
		got, n := sum(workers, func(s *float64) { *s = 0 })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: sum %v, want %v", workers, got, want)
		}
		if bound := int64(min(2*workers, len(blocks)) + 1); n > bound {
			t.Errorf("workers=%d: %d states allocated, want <= %d", workers, n, bound)
		}
	}
}

// TestStateIsNeverInTwoHands hammers the hand-over: every block checks
// that the state it was given is zero and still its own when it is
// done, every merge that its source was not merged before. Run under
// -race, which sees any unsynchronized sharing the checks miss.
func TestStateIsNeverInTwoHands(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		s := smallBlockScan(20000)
		s.Workers = workers
		l := &ledger{t: t, hold: func(lo int) {
			if lo%3 == 0 {
				runtime.Gosched()
			}
		}}
		if _, _, err := l.aggregate(true).Reduce(s); err != nil {
			t.Fatal(err)
		}
		if len(l.order) != len(s.Blocks()) {
			t.Fatalf("workers=%d: %d blocks merged, want %d", workers, len(l.order), len(s.Blocks()))
		}
	}
}

// TestSlowFirstBlockKeepsOrderAndWindow: block 0 stalls while its
// successors finish; they must wait their turn to merge, and the pool
// must not allocate its way past the window while it waits.
func TestSlowFirstBlockKeepsOrderAndWindow(t *testing.T) {
	const workers = 4
	s := smallBlockScan(8000)
	s.Workers = workers
	l := &ledger{t: t, hold: func(lo int) {
		if lo == 0 {
			time.Sleep(30 * time.Millisecond)
		}
	}}
	if _, _, err := l.aggregate(true).Reduce(s); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(l.order); i++ {
		if l.order[i] <= l.order[i-1] {
			t.Fatalf("merge %d took block %d after block %d", i, l.order[i]-1, l.order[i-1]-1)
		}
	}
	if n, bound := l.allocs.Load(), int64(2*workers+2); n > bound {
		t.Errorf("%d states allocated behind a slow block, want <= %d", n, bound)
	}
}

// TestCancelledScanReturnsItsStates: a scan cancelled from inside a
// block reports ctx.Err(), merges no state twice (the ledger checks)
// and leaves no goroutine behind.
func TestCancelledScanReturnsItsStates(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		s := smallBlockScan(20000)
		s.Workers = workers
		s.Ctx = ctx
		l := &ledger{t: t, hold: func(lo int) {
			if lo >= 5000 {
				cancel()
			}
		}}
		_, _, err := l.aggregate(true).Reduce(s)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(l.order) >= len(s.Blocks()) {
			t.Errorf("workers=%d: every block merged despite the cancellation", workers)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled scans, %d before", n, before)
	}
}

// TestEmittedGroupStateIsReused pins emit's contract from the side of
// a caller that breaks it: with a Reset there is one group state, so a
// pointer kept from one emit reads another group's sum by the time the
// scan is over. Groups, which does keep its states, runs the aggregate
// without recycling and returns one allocation per group, and their
// refold is the Reduce root.
func TestEmittedGroupStateIsReused(t *testing.T) {
	s := smallBlockScan(3000) // 12 groups of 256 rows
	s.Workers = 3
	l := &ledger{t: t}
	agg := l.aggregate(true)

	var kept []*tracked
	var sums []float64
	if _, err := agg.EachGroup(s, func(lo, hi int, st *tracked) {
		kept = append(kept, st)
		sums = append(sums, st.sum)
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != s.NumGroups() || len(kept) < 2 {
		t.Fatalf("%d groups emitted, want %d", len(kept), s.NumGroups())
	}
	for i, st := range kept {
		if st != kept[0] {
			t.Fatalf("group %d has a state of its own: the group state is not recycled", i)
		}
	}
	if math.Float64bits(kept[0].sum) == math.Float64bits(sums[0]) {
		t.Fatalf("the state kept from group 0 still reads %v; the sums are too alike to tell", sums[0])
	}

	groups, _, err := agg.Groups(s)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := agg.Reduce(s)
	if err != nil {
		t.Fatal(err)
	}
	refold := 0.0
	for i, g := range groups {
		if i > 0 && g.State == groups[i-1].State {
			t.Fatalf("Groups returned one state for groups %d and %d", i-1, i)
		}
		if math.Float64bits(g.State.sum) != math.Float64bits(sums[i]) {
			t.Errorf("group %d: collected %v, streamed %v", i, g.State.sum, sums[i])
		}
		refold += g.State.sum
	}
	if math.Float64bits(refold) != math.Float64bits(root.sum) {
		t.Errorf("refold of Groups = %v, Reduce root = %v", refold, root.sum)
	}
}
