// Package exec is M3's shared parallel chunked-execution layer: a
// block scheduler plus worker pool that every trainer sits on, and the
// one place a data pass is turned into an answer.
//
// The design follows the streaming-operator shape of FDB (Bakibayev
// et al., VLDB 2012) applied to M3's substrate: an answer is a set of
// mergeable partials with a fixed combination order. The row space of
// a (possibly memory-mapped) matrix is partitioned into blocks sized
// to a whole number of pages, a map runs over blocks on a pool of
// workers, and per-block partial states are combined by an ordered
// reduce. Because the partition depends only on the data geometry —
// never on the worker count — and partials are merged in ascending
// block order, results are bit-identical run to run regardless of how
// many workers execute the map. Parallelism changes wall time, not
// answers.
//
// Row scans additionally fix a canonical *grouped* merge association:
// rows are cut into merge groups of GroupRows(n) rows (a function of
// the row count alone), blocks never straddle a group boundary, each
// group folds its blocks into a zero-valued group state, and the root
// folds the group states in ascending row order.
//
// An algorithm states each of its data passes once, as an Aggregate:
// how to allocate a zero state, how to return a used state to that
// (Reset), how to accumulate a row block into it and how to merge two
// states. Every executor runs that one statement through
// reduceRowScan. A local fit folds it to a root (Aggregate.Reduce); a
// fused pipeline is the same call on a scan with Transform set; a
// distributed worker holding a group-aligned row shard stops one fold
// short and ships its group states as they complete
// (Aggregate.EachGroup), and a coordinator that merges them in global
// row order performs literally the sequence of floating-point merges
// a single-process fit performs — K-shard results are bit-identical
// to local ones, not merely close. internal/fit names aggregates so
// that a worker can look one up (fit.Declare) and picks the executor
// (fit.Reduce).
//
// The answer is a fold, so it needs the states in flight, not one per
// block. A worker draws a slot from a window of 2×workers before it
// claims a block and the reducer hands the slot back — with the merged
// state in it — after the merge. The window therefore bounds the
// states that are alive at once and, for an aggregate with a Reset,
// the states that are ever allocated: min(2×workers, blocks) block
// states, one group state and the root, a function of the pool and
// never of the row count or of timing. (Without a Reset a state is
// allocated per block and per group, which suits a counter.) The
// price is one rule for whoever receives a state — process, merge's
// src, EachGroup's emit: it must not keep the state past its return,
// because the next block or group will be accumulated into it.
//
// The layer integrates with the storage stack rather than sitting on
// top of it:
//
//   - every block declares its access with one store.Store Touch, from
//     whichever pool worker runs it, so a backend's accounting must be
//     safe for concurrent use; a backend that models stalls (the
//     simulated vm.Paged) returns them and the scan sums them in block
//     order;
//   - when the backing store supports ranged madvise
//     (store.RangeAdviser — the real mmap backend), each worker
//     issues mmap.WillNeed for the next block before computing on the
//     current one, overlapping kernel read-ahead with compute.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/mmap"
	"m3/internal/obs"
	"m3/internal/store"
)

// DefaultBlockBytes is the target block payload size. 256 KiB spans
// 64 pages at 4 KiB — large enough to amortize scheduling and touch
// accounting, small enough that a handful of blocks exist even for
// modest matrices.
const DefaultBlockBytes = 256 << 10

// Block is a half-open range [Lo, Hi) of items (rows, edges, ...).
type Block struct {
	Lo, Hi int
}

// Len returns the number of items in the block.
func (b Block) Len() int { return b.Hi - b.Lo }

// Workers resolves a worker-count knob: n <= 0 selects
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Partition splits n items of itemBytes bytes each into equal-size
// blocks (the last one keeps the remainder). The block budget is
// snapped up to a whole number of pages and then filled with whole
// items, so a block spans at least one page; block boundaries land on
// item boundaries and coincide with page boundaries only when
// itemBytes divides the budget.
// targetBlockBytes <= 0 selects DefaultBlockBytes. The
// result depends only on (n, itemBytes, targetBlockBytes) — never on
// the worker count — which is what makes downstream reductions
// deterministic under any parallelism.
func Partition(n, itemBytes, targetBlockBytes int) []Block {
	if n <= 0 {
		return nil
	}
	per := itemsPerBlock(itemBytes, targetBlockBytes)
	return appendBlocks(make([]Block, 0, (n+per-1)/per), 0, n, per)
}

// itemsPerBlock is Partition's block height.
func itemsPerBlock(itemBytes, targetBlockBytes int) int {
	if itemBytes <= 0 {
		itemBytes = 8
	}
	if targetBlockBytes <= 0 {
		targetBlockBytes = DefaultBlockBytes
	}
	ps := mmap.PageSize()
	// Snap the block budget to a whole number of pages, then convert
	// to items, rounding up so a block always covers >= 1 page.
	blockBytes := (targetBlockBytes + ps - 1) / ps * ps
	return max(blockBytes/itemBytes, 1)
}

// appendBlocks cuts [lo, hi) into blocks of per items (the last one
// keeps the remainder).
func appendBlocks(blocks []Block, lo, hi, per int) []Block {
	for ; lo < hi; lo += per {
		blocks = append(blocks, Block{Lo: lo, Hi: min(lo+per, hi)})
	}
	return blocks
}

// Merge-group geometry. Groups bound the number of partial states a
// distributed round ships (and a coordinator buffers) at MaxRowGroups,
// while MinGroupRows keeps groups page-scale so the per-group fold
// overhead stays negligible next to the block kernels.
const (
	// MinGroupRows is the smallest canonical merge-group height.
	MinGroupRows = 256
	// MaxRowGroups bounds how many merge groups a scan produces.
	MaxRowGroups = 64
)

// GroupRows returns the canonical merge-group height for a scan of n
// rows: the smallest power of two >= MinGroupRows whose group count
// stays within MaxRowGroups. It depends only on n — never on worker
// count, block size or shard layout — so every participant in a
// distributed fit derives the same group boundaries from the global
// row count alone.
func GroupRows(n int) int {
	g := MinGroupRows
	for n > g*MaxRowGroups {
		g <<= 1
	}
	return g
}

// ctxErr reports the cancellation state of an optional context (nil
// means the scan is not cancellable).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// MapReduce runs process over every block on up to workers goroutines
// and merges the per-block partial states into a fresh root state in
// ascending block order. alloc must return a zero-valued state;
// process must not retain its state after returning; merge folds src
// into dst and must not retain src. The reduction order — and
// therefore every floating-point association — is independent of the
// worker count.
//
// reset, when non-nil, returns a used state to what alloc returns, and
// block states are then recycled: the scan allocates at most
// min(2·workers, len(blocks)) of them however many blocks it has. A nil
// reset allocates one state per block, which is right for value-sized
// states (a counter, struct{}).
//
// ctx cancels the scan at block granularity: no new block starts after
// cancellation (blocks already in flight finish), and the returned
// error is ctx.Err(). The partial root state accompanying a non-nil
// error is incomplete and must be discarded. A nil ctx never cancels.
func MapReduce[T any](ctx context.Context, blocks []Block, workers int, alloc func() T, reset func(T), process func(state T, b Block), merge func(dst, src T)) (T, error) {
	out := alloc()
	err := mapReduceWorker(ctx, blocks, workers, out,
		alloc, reset, func(state T, _ int, b Block) { process(state, b) }, merge)
	return out, err
}

// mapReduceWorker is MapReduce into a root the caller supplies, with
// the pool-worker index threaded to process: worker w runs on exactly
// one goroutine at a time, so per-worker resources (a fused kernel
// chain, a trace track) can be indexed by w without further
// synchronization. The sequential path always reports worker 0.
func mapReduceWorker[T any](ctx context.Context, blocks []Block, workers int, out T, alloc func() T, reset func(T), process func(state T, worker int, b Block), merge func(dst, src T)) error {
	if len(blocks) == 0 {
		return ctxErr(ctx)
	}
	workers = Workers(workers)
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers == 1 {
		// Same block structure and merge association as the parallel
		// path, so one worker and N workers agree bit for bit.
		slot := recycler[T]{alloc: alloc, reset: reset}
		for _, b := range blocks {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			s := slot.next()
			process(s, 0, b)
			merge(out, s)
		}
		return ctxErr(ctx)
	}

	type item struct {
		i    int
		s    T
		slot *recycler[T]
	}
	// The in-flight window bounds partial states at O(workers): a
	// worker takes a slot before claiming a block and the reducer
	// returns it after the merge. So one slow block (a major-fault
	// stall on block 0, say) cannot let the rest of the pool race ahead
	// and pile up unmerged partials, and with a reset — a slot then
	// keeps its state for its next holder — no more than window states
	// are ever allocated: min(window, blocks) of them, whatever the
	// timing. That matters when a partial is a whole vector (PageRank)
	// or a K×D block (k-means).
	window := 2 * workers
	slots := make(chan *recycler[T], window)
	for i := 0; i < window; i++ {
		slots <- &recycler[T]{alloc: alloc, reset: reset}
	}
	ch := make(chan item, window)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				slot := <-slots
				i := int(next.Add(1)) - 1
				if i >= len(blocks) || ctxErr(ctx) != nil {
					// Cancelled workers stop claiming blocks; the
					// block just taken (if any) is abandoned, which
					// leaves a gap the reducer never merges past —
					// fine, because the partial result is discarded
					// alongside the returned error.
					slots <- slot
					return
				}
				s := slot.next()
				process(s, w, blocks[i])
				ch <- item{i: i, s: s, slot: slot}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	// Ordered streaming reduce: merge block k only after blocks
	// 0..k-1. Progress is guaranteed: blocks are claimed in order, so
	// the lowest unmerged block is always either in pending (merged
	// immediately below) or being processed by a slot-holding worker.
	pending := make(map[int]item, window)
	nextMerge := 0
	for it := range ch {
		pending[it.i] = it
		for {
			ready, ok := pending[nextMerge]
			if !ok {
				break
			}
			delete(pending, nextMerge)
			merge(out, ready.s)
			nextMerge++
			slots <- ready.slot
		}
	}
	return ctxErr(ctx)
}

// recycler hands out zero states to a holder that is done with each
// before it asks for the next: with a reset that is one state, reset
// between uses; without one, a new state every time.
type recycler[T any] struct {
	alloc func() T
	reset func(T)
	s     T
	live  bool
}

func (r *recycler[T]) next() T {
	if r.live {
		r.reset(r.s)
		return r.s
	}
	s := r.alloc()
	if r.reset != nil {
		r.s, r.live = s, true
	}
	return s
}

// RowKernel is one link of a fused transform chain: it maps a source
// row into dst (sized to the transformed width) and returns the row
// the consumer sees — dst after writing it, or src unchanged for
// identity links. Kernels are created per worker through an
// alloc-style factory, so a kernel may own reusable scratch (a
// centering buffer, say) without synchronization; it must never
// write through src, which may alias a read-only mapping.
type RowKernel func(dst, src []float64) []float64

// RowScan describes a blocked scan over the rows of a row-major,
// store-backed matrix. Zero-valued knobs pick defaults: Workers <= 0
// means runtime.NumCPU(), BlockBytes <= 0 means DefaultBlockBytes.
//
// A scan with Transform set is a fused pipeline: workers read source
// rows (SrcCols wide, at Off/Stride in the store) and push each
// through a per-worker kernel chain before the consumer callback, so
// ReduceRows/ReduceRowBlocks/ForEachRow consumers observe virtual
// transformed rows of width Cols with no intermediate materialization
// beyond one per-worker row buffer. The row partition is computed
// from the transformed geometry (Rows × Cols), exactly the partition
// a scan of the materialized output matrix would use — and per-block
// partials still merge in ascending block order — so a fused
// reduction is bit-identical to transforming first and scanning the
// result.
type RowScan struct {
	// Ctx, when non-nil, cancels the scan at block granularity: no new
	// block starts after cancellation and the scan returns Ctx.Err().
	Ctx context.Context
	// Store backs the matrix; Data() must remain valid for the scan.
	Store store.Store
	// Off is the element offset of row 0 within the store.
	Off int
	// Rows and Cols give the scanned shape; Stride is the element
	// distance between row starts.
	Rows, Cols, Stride int
	// Workers caps the pool (<= 0: NumCPU).
	Workers int
	// BlockBytes overrides the target block payload size.
	BlockBytes int
	// NoPrefetch disables WillNeed advice for upcoming blocks.
	NoPrefetch bool
	// Transform, when non-nil, is the per-worker factory for the fused
	// row-kernel chain applied between the block read and the consumer
	// callback. Each pool worker instantiates the chain exactly once
	// (not per block), so kernel-owned scratch is reused across the
	// worker's whole scan. With Transform set, Cols is the transformed
	// (consumer-visible) row width and SrcCols the source width.
	Transform func() RowKernel
	// SrcCols is the width of the source rows read from the store when
	// Transform is set (<= 0 defaults to Cols, an in-place chain).
	SrcCols int
	// GroupRows overrides the canonical merge-group height (<= 0
	// derives GroupRows(Rows)). A distributed worker scanning a
	// group-aligned shard of a larger matrix sets this to the
	// coordinator's GroupRows(globalRows): the shard then partitions
	// and groups exactly as those rows do inside the global scan, so
	// its group partials are interchangeable with local ones.
	GroupRows int
	// Name labels the scan in obs traces: the scan span and its
	// per-worker block events carry it. Empty means "scan". When a
	// process tracer is installed (obs.StartTrace) every scan reports
	// per-worker block timings.
	Name string
}

// Named returns a copy of the scan labeled name for obs traces.
func (s RowScan) Named(name string) RowScan {
	s.Name = name
	return s
}

// Blocks returns the scan's row partition (page-budgeted, row-
// boundary blocks). Worker count does not influence it. For fused
// scans the partition is computed from the transformed width (Cols),
// matching the partition of the materialized output matrix so fused
// reductions associate identically.
//
// Blocks never straddle a merge-group boundary: each group of
// groupRows() rows is partitioned independently, so the block pattern
// restarts at every group boundary. That is what makes a shard-local
// partition equal the global partition restricted to the shard when
// the shard starts on a group boundary.
func (s RowScan) Blocks() []Block {
	gr := s.groupRows()
	per := itemsPerBlock(s.Cols*8, s.BlockBytes)
	blocks := make([]Block, 0, s.NumGroups()*((min(gr, s.Rows)+per-1)/per))
	for glo := 0; glo < s.Rows; glo += gr {
		blocks = appendBlocks(blocks, glo, min(glo+gr, s.Rows), per)
	}
	return blocks
}

// groupRows resolves the merge-group height: the explicit override
// for shard scans, the canonical derivation otherwise.
func (s RowScan) groupRows() int {
	if s.GroupRows > 0 {
		return s.GroupRows
	}
	return GroupRows(s.Rows)
}

// NumGroups returns how many merge groups the scan's rows fall into —
// how many states EachGroup will emit.
func (s RowScan) NumGroups() int {
	gr := s.groupRows()
	return (s.Rows + gr - 1) / gr
}

// srcCols resolves the width of the rows actually read from the
// store: the transformed width unless a fused chain narrows or widens
// it via SrcCols.
func (s RowScan) srcCols() int {
	if s.Transform != nil && s.SrcCols > 0 {
		return s.SrcCols
	}
	return s.Cols
}

// EffectiveWorkers resolves the pool size this scan will actually
// run with: the Workers knob (<= 0: NumCPU), clamped to the block
// count — a pool larger than the partition has idle workers.
func (s RowScan) EffectiveWorkers() int {
	return s.effectiveWorkers(len(s.Blocks()))
}

// effectiveWorkers is EffectiveWorkers with the block count already
// in hand, so callers that hold the partition don't recompute it.
func (s RowScan) effectiveWorkers(nblocks int) int {
	w := Workers(s.Workers)
	if nblocks > 0 && w > nblocks {
		w = nblocks
	}
	return w
}

// blockState pairs a user partial with its accounted stall and its
// block's first row so all three reduce in block order.
type blockState[T any] struct {
	user  T
	lo    int
	stall float64
}

// GroupPartial is one canonical merge group's folded state: the rows
// [Lo, Hi) it covers and the zero-rooted fold of its blocks' partials.
// Refolding a scan's GroupPartials in ascending Lo order with the same
// merge function reproduces the ReduceRowBlocks root bit for bit —
// the seam the distributed layer ships across the network.
type GroupPartial[T any] struct {
	Lo, Hi int
	State  T
}

// ReduceRowBlocks applies fn to whole row blocks and merges per-block
// partial states in canonical grouped order — blocks fold into their
// merge group's state, groups fold into the root, both in ascending
// row order — returning the root state and the total simulated
// stall. Each block declares its access with one bulk Store.Touch
// and, on prefetch-capable stores, first advises WillNeed for the
// following block so the kernel overlaps its faults with this block's
// compute. fn receives the row range [lo, hi), the backing slice of
// those rows (starting at row lo) and the row stride, sized for
// direct use with the row-block kernels in internal/blas (Gemv,
// SumRows, ...).
//
// On a fused scan (s.Transform non-nil) fn instead receives each
// transformed row as a single-row block ([i, i+1), stride s.Cols):
// transformed rows live in a per-worker buffer and are not contiguous
// across rows, and per-row delivery in ascending order keeps every
// accumulation associating exactly as it would over the materialized
// transform output.
//
// When s.Ctx is cancelled the scan stops within one block and returns
// s.Ctx.Err(); the partial state must then be discarded.
func ReduceRowBlocks[T any](s RowScan, alloc func() T, fn func(state T, lo, hi int, block []float64, stride int), merge func(dst, src T)) (T, float64, error) {
	return Aggregate[T]{Alloc: alloc, Block: fn, Merge: merge}.reduce(s)
}

// ReduceRowGroups is ReduceRowBlocks stopped one fold short: it
// returns the per-group partial states, in ascending row order,
// instead of folding them into a root. Refolding them with merge
// reproduces the ReduceRowBlocks root bit for bit. On error the
// partials are withheld (nil) — an interrupted scan has incomplete
// groups.
func ReduceRowGroups[T any](s RowScan, alloc func() T, fn func(state T, lo, hi int, block []float64, stride int), merge func(dst, src T)) ([]GroupPartial[T], float64, error) {
	groups := make([]GroupPartial[T], 0, MaxRowGroups)
	// No reset: every group state is a fresh one, so keeping them is
	// within emit's contract.
	stall, err := reduceRowScan(s, alloc, nil, fn, merge,
		func(lo, hi int, group T) {
			groups = append(groups, GroupPartial[T]{Lo: lo, Hi: hi, State: group})
		})
	if err != nil {
		return nil, stall, err
	}
	return groups, stall, nil
}

// Aggregate is one data pass stated once: a zero state, the
// accumulation of one row block into a state, and the merge of two
// states. Local, fused and sharded execution all run this statement —
// Reduce folds it to a root, EachGroup stops at the merge-group states
// a coordinator refolds — so they cannot disagree about the arithmetic.
type Aggregate[T any] struct {
	// Name labels the scan in obs traces ("logreg grad", "pca cov").
	Name string
	// BlockBytes, when positive, overrides the scan's block payload
	// size: a pass whose state is large (a d×d matrix) asks for blocks
	// tall enough to amortize zeroing and merging one.
	BlockBytes int
	// Alloc returns a zero state.
	Alloc func() T
	// Reset returns a used state to what Alloc returns — every field,
	// whatever "zero" is for it (an extremum starts at ±Inf) — so that
	// a scan can recycle its states and allocate a number of them that
	// depends on the worker count alone, never on the row count. A
	// state that owns a slice should have one; nil allocates a state
	// per block and per group, which suits value-sized states.
	Reset func(T)
	// Block accumulates rows [lo, hi) into state (see ReduceRowBlocks
	// for the block layout; fused scans deliver single-row blocks).
	Block func(state T, lo, hi int, block []float64, stride int)
	// Merge folds src into dst and must not retain src.
	Merge func(dst, src T)
}

// on returns s labelled and block-sized for the aggregate.
func (a Aggregate[T]) on(s RowScan) RowScan {
	s.Name = a.Name
	if a.BlockBytes > 0 {
		s.BlockBytes = a.BlockBytes
	}
	return s
}

// Reduce folds the aggregate over s to its root: blocks fold into
// their merge group's state, groups fold into the root, both in
// ascending row order (see ReduceRowBlocks).
func (a Aggregate[T]) Reduce(s RowScan) (T, float64, error) {
	return a.reduce(a.on(s))
}

func (a Aggregate[T]) reduce(s RowScan) (T, float64, error) {
	root := a.Alloc()
	stall, err := reduceRowScan(s, a.Alloc, a.Reset, a.Block, a.Merge,
		func(_, _ int, group T) { a.Merge(root, group) })
	return root, stall, err
}

// EachGroup is Reduce stopped one fold short: each merge group's
// state goes to emit, in ascending row order, instead of into a root.
// emit must not keep the state past its return (the next group reuses
// it) and is not called for groups a cancellation left incomplete. A
// distributed worker calls this on its shard scan (with
// RowScan.GroupRows set to the global group height) and encodes each
// state as it arrives; the coordinator refolds all shards' groups in
// global row order and obtains the exact bits a local Reduce would
// have produced.
func (a Aggregate[T]) EachGroup(s RowScan, emit func(lo, hi int, state T)) (float64, error) {
	return reduceRowScan(a.on(s), a.Alloc, a.Reset, a.Block, a.Merge, emit)
}

// OneAtATime returns a source of zero states for a holder that is done
// with each before it asks for the next — a coordinator decoding one
// group after another. With a Reset every call returns the same state,
// reset; without one, a new state.
func (a Aggregate[T]) OneAtATime() func() T {
	r := recycler[T]{alloc: a.Alloc, reset: a.Reset}
	return r.next
}

// Groups collects the merge-group states EachGroup streams
// (ReduceRowGroups): every state it returns is its own allocation.
func (a Aggregate[T]) Groups(s RowScan) ([]GroupPartial[T], float64, error) {
	return ReduceRowGroups(a.on(s), a.Alloc, a.Block, a.Merge)
}

// EachRow lifts a per-row accumulation over cols-wide rows to the
// block form Aggregate.Block and ReduceRowBlocks take.
func EachRow[T any](cols int, fn func(state T, i int, row []float64)) func(state T, lo, hi int, block []float64, stride int) {
	return func(state T, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			rs := (i - lo) * stride
			fn(state, i, block[rs:rs+cols])
		}
	}
}

// reduceRowScan runs the blocked scan every executor shares: per-block
// partials fold into zero-rooted group states in ascending block
// order, and each completed group is handed to emit (ascending, from
// the single reducing goroutine). emit must not retain the state: with
// a reset the one group state is reset and reused for the next group,
// as block states are (see MapReduce), so a scan allocates at most
// min(2·workers, blocks) block states and one group state. emit is not
// called for groups left incomplete by cancellation.
func reduceRowScan[T any](s RowScan, alloc func() T, reset func(T), fn func(state T, lo, hi int, block []float64, stride int), merge func(dst, src T), emit func(lo, hi int, group T)) (float64, error) {
	blocks := s.Blocks()
	data := s.Store.Data()
	adviser, _ := s.Store.(store.RangeAdviser)
	prefetch := adviser != nil && !s.NoPrefetch
	workers := s.effectiveWorkers(len(blocks))
	srcCols := s.srcCols()

	// Tracing: loaded once per scan, so the disabled cost is one atomic
	// load here plus one nil check per block. With a tracer installed,
	// the scan itself is a control-track span and every block becomes a
	// complete event on its pool worker's track — the real-run mirror
	// of vm.Timeline's per-worker CPU tracks.
	tr := obs.Current()
	spanName := s.Name
	if spanName == "" {
		spanName = "scan"
	}
	var scanSpan *obs.Span
	if tr != nil {
		scanSpan = tr.Start("scan", spanName).
			SetArg("rows", s.Rows).SetArg("cols", s.Cols).
			SetArg("workers", workers).SetArg("blocks", len(blocks))
	}

	// Fused chains are instantiated once per pool worker (worker w
	// runs on exactly one goroutine at a time, so kerns[w]/rowbuf[w]
	// need no locking) and rows are handed to fn one at a time as
	// single-row blocks. Consumers accumulate per-row in ascending
	// order either way, so the fused reduction is bit-identical to
	// scanning the materialized transform output.
	var kerns []RowKernel
	var rowbuf [][]float64
	if s.Transform != nil {
		kerns = make([]RowKernel, workers)
		rowbuf = make([][]float64, workers)
	}

	// Grouped fold bookkeeping. The merge callback below runs on a
	// single goroutine in ascending block order (mapReduceWorker's
	// contract), so plain captured state suffices: when a block from a
	// new group arrives, the finished group is emitted and a zero-valued
	// group state begins.
	gr := s.groupRows()
	groups := recycler[T]{alloc: alloc, reset: reset}
	var group T
	groupIdx := -1
	flush := func() {
		if groupIdx < 0 {
			return
		}
		lo := groupIdx * gr
		hi := lo + gr
		if hi > s.Rows {
			hi = s.Rows
		}
		emit(lo, hi, group)
	}

	// The wrapper around a block's user state is always recycled; the
	// user state is when the caller gave a reset.
	blockReset := func(st *blockState[T]) { st.user = alloc() }
	if reset != nil {
		blockReset = func(st *blockState[T]) { reset(st.user) }
	}
	root := &blockState[T]{} // only its stall is used
	err := mapReduceWorker(s.Ctx, blocks, workers, root,
		func() *blockState[T] { return &blockState[T]{user: alloc()} },
		blockReset,
		func(st *blockState[T], w int, b Block) {
			st.lo = b.Lo
			var t0 time.Duration
			if tr != nil {
				t0 = tr.Now()
			}
			if prefetch {
				// Advise the block this worker will likely claim
				// next: with W workers, blocks b..b+W-1 are already
				// in flight, so W blocks ahead is the nearest range
				// with actual lead time (W=1 degenerates to the
				// following block). Advising an already-claimed
				// block is harmless (madvise is idempotent).
				if nb := b.Lo + workers*b.Len(); nb < s.Rows {
					end := nb + b.Len()
					if end > s.Rows {
						end = s.Rows
					}
					start := s.Off + nb*s.Stride
					n := (end-nb-1)*s.Stride + srcCols
					_ = adviser.AdviseRange(mmap.WillNeed, start, n)
				}
			}
			start := s.Off + b.Lo*s.Stride
			n := (b.Len()-1)*s.Stride + srcCols
			st.stall = s.Store.Touch(start, n)
			if s.Transform == nil {
				fn(st.user, b.Lo, b.Hi, data[start:start+n], s.Stride)
			} else {
				k := kerns[w]
				if k == nil {
					k = s.Transform()
					kerns[w] = k
					rowbuf[w] = make([]float64, s.Cols)
				}
				buf := rowbuf[w]
				for i := b.Lo; i < b.Hi; i++ {
					rs := s.Off + i*s.Stride
					row := k(buf, data[rs:rs+srcCols])
					fn(st.user, i, i+1, row, s.Cols)
				}
			}
			if tr != nil {
				tr.WorkerEvent(w, spanName, t0, map[string]any{
					"lo": b.Lo, "hi": b.Hi, "stall_s": st.stall,
				})
			}
		},
		func(dst, src *blockState[T]) {
			dst.stall += src.stall
			if g := src.lo / gr; g != groupIdx {
				flush()
				group = groups.next()
				groupIdx = g
			}
			merge(group, src.user)
		})
	if err == nil {
		flush()
	}
	if scanSpan != nil {
		scanSpan.SetArg("stall_s", root.stall)
		if err != nil {
			scanSpan.SetArg("err", err.Error())
		}
		scanSpan.End()
	}
	return root.stall, err
}

// ReduceRows applies fn to every row of the scan and merges per-block
// partial states in ascending block order, returning the root state
// and the total simulated stall. fn receives the row index and the
// row slice aliasing the backing store; it must only write to state
// (or to per-row disjoint locations such as an output slice). A
// cancelled s.Ctx stops the scan within one block (see
// ReduceRowBlocks).
func ReduceRows[T any](s RowScan, alloc func() T, fn func(state T, i int, row []float64), merge func(dst, src T)) (T, float64, error) {
	return ReduceRowBlocks(s, alloc, EachRow(s.Cols, fn), merge)
}

// ForEachRow runs fn over every row of the scan on the worker pool,
// with block-granular Touch accounting and prefetch, and returns the
// total stall. fn must write only to per-row disjoint locations; no
// state is reduced. Row visit order within a block is ascending, but
// blocks run concurrently. A cancelled s.Ctx stops the scan within
// one block and returns s.Ctx.Err(); rows of unprocessed blocks are
// then never visited.
func ForEachRow(s RowScan, fn func(i int, row []float64)) (float64, error) {
	_, stall, err := ReduceRows(s,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int, row []float64) { fn(i, row) },
		func(_, _ struct{}) {})
	return stall, err
}
