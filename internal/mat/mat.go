// Package mat provides a dense row-major matrix view over a
// store.Store. It is the data structure the paper's Table 1 sketches:
// construct it over a heap slice and you have "Mat data;", construct
// it over a memory-mapped region and the same algorithm code runs
// out-of-core.
//
// Row-granular accessors (Row, ForEachRow, MulVec, ...) route their
// accesses through the store's Touch hooks so the simulated vm.Paged
// can account faults; element accessors (At, Set) are unaccounted fast
// paths for small matrices such as model parameters.
package mat

import (
	"context"
	"fmt"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/store"
)

// Dense is a row-major matrix view over a store.
type Dense struct {
	s          store.Store
	data       []float64
	rows, cols int
	stride     int
	off        int // element offset of row 0 within the store
	// workersHint is the default chunked-execution pool size for scans
	// that do not choose one themselves; engines stamp it on the
	// matrices they open so trainers inherit the engine configuration
	// automatically. 0 means "no preference" (NumCPU at the exec layer).
	workersHint int
	// fused, when non-nil, marks this matrix as a virtual transformed
	// view (NewFused): rows/cols describe the transformed geometry
	// while reads go to the source store through a row-kernel chain.
	fused *fusedView
}

// fusedView carries the source geometry and kernel factory of a
// virtual transformed matrix.
type fusedView struct {
	srcCols, srcStride, srcOff int
	newKernel                  func() exec.RowKernel
}

// NewFused returns a read-only virtual view over src: it reports
// src's row count and outCols columns, and every scan reads source
// rows and pushes them through a kernel chain on the fly — operator
// fusion, so a transformed matrix is consumed at disk bandwidth with
// no materialized intermediate. newKernel is an alloc-style factory
// invoked once per scan worker (or once per sequential scan); the
// kernel writes each transformed row into its dst argument (outCols
// wide) and must not write through the source row.
//
// Blocked scans (Scan/ScanCtx and everything built on them:
// ForEachRowParallel, exec.ReduceRows/ReduceRowBlocks/ForEachRow) and
// the sequential row reads (ForEachRow, Row, At, MulVec, MulTransVec,
// Clone, Equal) all see transformed data; blocked reductions over a
// fused view are bit-identical to the same reduction over the
// materialized transform output. Fusing over an already-fused src
// composes the chains. Writes and raw-aliasing accessors (Set,
// SetRow, RawRow, RowWindow, Fill, Contiguous) are invalid on fused
// views; materialize first.
func NewFused(src *Dense, outCols int, newKernel func() exec.RowKernel) *Dense {
	checkDims(src.rows, outCols)
	if newKernel == nil {
		panic("mat: NewFused with nil kernel factory")
	}
	fv := &fusedView{
		srcCols:   src.cols,
		srcStride: src.stride,
		srcOff:    src.off,
		newKernel: newKernel,
	}
	if inner := src.fused; inner != nil {
		// Fusing over a fused view: compose the chains so the new view
		// still reads the original store exactly once per row.
		fv.srcCols = inner.srcCols
		fv.srcStride = inner.srcStride
		fv.srcOff = inner.srcOff
		innerCols := src.cols
		fv.newKernel = func() exec.RowKernel {
			ik := inner.newKernel()
			ibuf := make([]float64, innerCols)
			ok := newKernel()
			return func(dst, row []float64) []float64 {
				return ok(dst, ik(ibuf, row))
			}
		}
	}
	return &Dense{
		s: src.s, data: src.data,
		rows: src.rows, cols: outCols, stride: outCols,
		workersHint: src.workersHint,
		fused:       fv,
	}
}

// IsFused reports whether the matrix is a virtual transformed view.
func (d *Dense) IsFused() bool { return d.fused != nil }

// fusedRow applies a fresh kernel chain to source row i — the slow
// (allocating) random-access path of a fused view; scans use
// per-worker kernels instead.
func (d *Dense) fusedRow(i int) (row []float64, stall float64) {
	fv := d.fused
	start := fv.srcOff + i*fv.srcStride
	stall = d.s.Touch(start, fv.srcCols)
	return fv.newKernel()(make([]float64, d.cols), d.data[start:start+fv.srcCols]), stall
}

// noFused panics when op is unsupported on a virtual transformed view.
func (d *Dense) noFused(op string) {
	if d.fused != nil {
		panic("mat: " + op + " on a fused view; materialize the transform first")
	}
}

// NewDense allocates a rows×cols heap-backed matrix.
func NewDense(rows, cols int) *Dense {
	checkDims(rows, cols)
	s := store.NewHeap(rows * cols)
	return &Dense{s: s, data: s.Data(), rows: rows, cols: cols, stride: cols}
}

// NewDenseFrom wraps an existing slice (length >= rows*cols) as a
// matrix without copying — the "M3" column of Table 1, where the
// slice came from mmapAlloc.
func NewDenseFrom(data []float64, rows, cols int) *Dense {
	checkDims(rows, cols)
	if len(data) < rows*cols {
		panic(fmt.Sprintf("mat: slice of %d elements cannot hold %dx%d", len(data), rows, cols))
	}
	s := store.FromSlice(data)
	return &Dense{s: s, data: s.Data(), rows: rows, cols: cols, stride: cols}
}

// NewDenseStore builds a matrix view over an arbitrary store backend.
func NewDenseStore(s store.Store, rows, cols int) (*Dense, error) {
	checkDims(rows, cols)
	if s.Len() < rows*cols {
		return nil, fmt.Errorf("mat: store of %d elements cannot hold %dx%d", s.Len(), rows, cols)
	}
	return &Dense{s: s, data: s.Data(), rows: rows, cols: cols, stride: cols}, nil
}

func checkDims(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: non-positive dimensions %dx%d", rows, cols))
	}
}

// Dims returns (rows, cols).
func (d *Dense) Dims() (rows, cols int) { return d.rows, d.cols }

// Rows returns the row count.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the column count.
func (d *Dense) Cols() int { return d.cols }

// Store returns the backing store.
func (d *Dense) Store() store.Store { return d.s }

// SizeBytes returns the matrix payload size in bytes.
func (d *Dense) SizeBytes() int64 { return int64(d.rows) * int64(d.cols) * 8 }

// At returns element (i, j). No paging accounting (fast path); on a
// fused view the whole source row is transformed per call (slow path).
func (d *Dense) At(i, j int) float64 {
	d.check(i, j)
	if d.fused != nil {
		row, _ := d.fusedRow(i)
		return row[j]
	}
	return d.data[d.off+i*d.stride+j]
}

// Set stores v at element (i, j). No paging accounting (fast path).
func (d *Dense) Set(i, j int, v float64) {
	d.noFused("Set")
	d.check(i, j)
	d.data[d.off+i*d.stride+j] = v
}

func (d *Dense) check(i, j int) {
	if i < 0 || i >= d.rows || j < 0 || j >= d.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of %dx%d", i, j, d.rows, d.cols))
	}
}

// Row returns row i as a slice aliasing the backing store, accounting
// the access as a read. The returned stall is the simulated seconds
// spent paging (zero for real backends).
func (d *Dense) Row(i int) (row []float64, stall float64) {
	if i < 0 || i >= d.rows {
		panic(fmt.Sprintf("mat: row %d out of %d", i, d.rows))
	}
	if d.fused != nil {
		return d.fusedRow(i)
	}
	start := d.off + i*d.stride
	stall = d.s.Touch(start, d.cols)
	return d.data[start : start+d.cols], stall
}

// RawRow returns row i without touching the paging accounting. Use it
// only for matrices known to be resident (e.g. model parameters).
func (d *Dense) RawRow(i int) []float64 {
	d.noFused("RawRow")
	if i < 0 || i >= d.rows {
		panic(fmt.Sprintf("mat: row %d out of %d", i, d.rows))
	}
	start := d.off + i*d.stride
	return d.data[start : start+d.cols]
}

// SetRow copies src into row i, accounting a write.
func (d *Dense) SetRow(i int, src []float64) (stall float64) {
	d.noFused("SetRow")
	if len(src) != d.cols {
		panic(fmt.Sprintf("mat: SetRow of %d values into %d columns", len(src), d.cols))
	}
	start := d.off + i*d.stride
	stall = d.s.TouchWrite(start, d.cols)
	copy(d.data[start:start+d.cols], src)
	return stall
}

// Contiguous returns the matrix's backing elements as one row-major
// slice when rows are stored back to back (stride == cols); ok is
// false for strided views, whose rows are not adjacent in memory.
func (d *Dense) Contiguous() (data []float64, ok bool) {
	if d.fused != nil || d.stride != d.cols {
		return nil, false
	}
	return d.data[d.off : d.off+d.rows*d.cols], true
}

// RowWindow returns a view of rows [i0, i1) sharing the same backing
// store; no data is copied.
func (d *Dense) RowWindow(i0, i1 int) *Dense {
	d.noFused("RowWindow")
	if i0 < 0 || i1 > d.rows || i0 >= i1 {
		panic(fmt.Sprintf("mat: window [%d,%d) out of %d rows", i0, i1, d.rows))
	}
	return &Dense{
		s: d.s, data: d.data,
		rows: i1 - i0, cols: d.cols,
		stride: d.stride,
		off:    d.off + i0*d.stride,
		// Views inherit the engine's worker preference.
		workersHint: d.workersHint,
	}
}

// SetWorkersHint records the default worker-pool size scans over this
// matrix use when the caller does not pick one (workers <= 0). Engines
// stamp their Config.Workers here on Open and Alloc, which is how
// engine-backed matrices reach every trainer with the engine's
// parallelism without any per-call plumbing. n <= 0 clears the hint.
func (d *Dense) SetWorkersHint(n int) {
	if n < 0 {
		n = 0
	}
	d.workersHint = n
}

// WorkersHint returns the stamped default pool size (0 = none).
func (d *Dense) WorkersHint() int { return d.workersHint }

// ForEachRow invokes fn for every row in storage order — the
// sequential scan at the heart of each training iteration. It returns
// the total simulated stall.
func (d *Dense) ForEachRow(fn func(i int, row []float64)) (stall float64) {
	if fv := d.fused; fv != nil {
		// One kernel chain and one row buffer serve the whole
		// sequential scan.
		kern := fv.newKernel()
		buf := make([]float64, d.cols)
		for i := 0; i < d.rows; i++ {
			start := fv.srcOff + i*fv.srcStride
			stall += d.s.Touch(start, fv.srcCols)
			fn(i, kern(buf, d.data[start:start+fv.srcCols]))
		}
		return stall
	}
	for i := 0; i < d.rows; i++ {
		start := d.off + i*d.stride
		stall += d.s.Touch(start, d.cols)
		fn(i, d.data[start:start+d.cols])
	}
	return stall
}

// Scan returns a chunked-execution descriptor over d's rows for the
// shared parallel layer (internal/exec): workers <= 0 falls back to
// the matrix's workers hint (stamped by the owning engine), and then
// to runtime.NumCPU(). The partition depends only on the matrix shape —
// never the worker count — so reductions built on it are
// deterministic.
func (d *Dense) Scan(workers int) exec.RowScan {
	if workers <= 0 {
		workers = d.workersHint
	}
	if fv := d.fused; fv != nil {
		// Fused view: the scan reads source rows and applies the
		// per-worker kernel chain; the partition follows the
		// transformed geometry (see exec.RowScan).
		return exec.RowScan{
			Store:     d.s,
			Off:       fv.srcOff,
			Rows:      d.rows,
			Cols:      d.cols,
			Stride:    fv.srcStride,
			Workers:   workers,
			Transform: fv.newKernel,
			SrcCols:   fv.srcCols,
		}
	}
	return exec.RowScan{
		Store:   d.s,
		Off:     d.off,
		Rows:    d.rows,
		Cols:    d.cols,
		Stride:  d.stride,
		Workers: workers,
	}
}

// ScanCtx is Scan with a cancellation context attached: the scan stops
// within one block of ctx being cancelled and reports ctx.Err().
func (d *Dense) ScanCtx(ctx context.Context, workers int) exec.RowScan {
	s := d.Scan(workers)
	s.Ctx = ctx
	return s
}

// ForEachRowParallel invokes fn for every row using the shared block
// scheduler: page-sized blocks, bulk Touch accounting, WillNeed
// prefetch on mapped backings. fn runs concurrently across blocks and
// must write only to per-row disjoint locations. Row order within a
// block is ascending; blocks interleave. It returns the total
// simulated stall.
func (d *Dense) ForEachRowParallel(workers int, fn func(i int, row []float64)) (stall float64) {
	stall, _ = exec.ForEachRow(d.Scan(workers), fn) // nil ctx: never cancels
	return stall
}

// MulVecParallel computes y = A·x over the shared parallel layer,
// running the blas.Gemv row-block kernel on each block. Each y[i] is
// written by exactly one worker, so the result is bit-identical to
// MulVec — per-row dot products do not reassociate. It returns the
// simulated stall.
func (d *Dense) MulVecParallel(y, x []float64, workers int) (stall float64) {
	if len(x) != d.cols || len(y) != d.rows {
		panic(fmt.Sprintf("mat: MulVecParallel shapes y[%d] = A(%dx%d)·x[%d]", len(y), d.rows, d.cols, len(x)))
	}
	_, stall, _ = exec.ReduceRowBlocks(d.Scan(workers).Named("mulvec"),
		func() struct{} { return struct{}{} },
		func(_ struct{}, lo, hi int, block []float64, stride int) {
			blas.Gemv(hi-lo, d.cols, 1, block, stride, x, 0, y[lo:hi])
		},
		func(_, _ struct{}) {})
	return stall
}

// MulVec computes y = A·x, scanning A once sequentially.
// It returns the simulated stall.
func (d *Dense) MulVec(y, x []float64) (stall float64) {
	if len(x) != d.cols || len(y) != d.rows {
		panic(fmt.Sprintf("mat: MulVec shapes y[%d] = A(%dx%d)·x[%d]", len(y), d.rows, d.cols, len(x)))
	}
	return d.ForEachRow(func(i int, row []float64) {
		y[i] = blas.Dot(row, x)
	})
}

// MulTransVec computes y = Aᵀ·x, still scanning A in row order so the
// access pattern remains sequential. It returns the simulated stall.
func (d *Dense) MulTransVec(y, x []float64) (stall float64) {
	if len(x) != d.rows || len(y) != d.cols {
		panic(fmt.Sprintf("mat: MulTransVec shapes y[%d] = A(%dx%d)ᵀ·x[%d]", len(y), d.rows, d.cols, len(x)))
	}
	blas.Fill(y, 0)
	return d.ForEachRow(func(i int, row []float64) {
		blas.Axpy(x[i], row, y)
	})
}

// ColTo copies column j into dst (length rows), accounting one
// element read per row. On a row-major mapped matrix this is the
// pathological access pattern: every element lives on a different
// page region, so out-of-core column traversals thrash where row
// scans stream — the layout lesson behind M3's "store in scan order".
func (d *Dense) ColTo(j int, dst []float64) (stall float64) {
	d.noFused("ColTo")
	if j < 0 || j >= d.cols {
		panic(fmt.Sprintf("mat: column %d out of %d", j, d.cols))
	}
	if len(dst) != d.rows {
		panic(fmt.Sprintf("mat: ColTo dst length %d, want %d", len(dst), d.rows))
	}
	for i := 0; i < d.rows; i++ {
		idx := d.off + i*d.stride + j
		stall += d.s.Touch(idx, 1)
		dst[i] = d.data[idx]
	}
	return stall
}

// Fill sets every element to v, accounting writes row by row.
func (d *Dense) Fill(v float64) (stall float64) {
	d.noFused("Fill")
	for i := 0; i < d.rows; i++ {
		start := d.off + i*d.stride
		stall += d.s.TouchWrite(start, d.cols)
		blas.Fill(d.data[start:start+d.cols], v)
	}
	return stall
}

// CopyFrom copies src (same shape) into d, accounting reads on src
// and writes on d.
func (d *Dense) CopyFrom(src *Dense) (stall float64) {
	d.noFused("CopyFrom")
	if src.rows != d.rows || src.cols != d.cols {
		panic(fmt.Sprintf("mat: CopyFrom %dx%d into %dx%d", src.rows, src.cols, d.rows, d.cols))
	}
	for i := 0; i < d.rows; i++ {
		srow, s1 := src.Row(i)
		s2 := d.SetRow(i, srow)
		stall += s1 + s2
	}
	return stall
}

// Clone returns a heap-backed deep copy; cloning a fused view
// materializes the transform.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.rows, d.cols)
	if d.fused != nil {
		d.ForEachRow(func(i int, row []float64) { out.SetRow(i, row) })
		return out
	}
	out.CopyFrom(d)
	return out
}

// Equal reports whether two matrices have identical shape and
// elements (exact comparison).
func (d *Dense) Equal(other *Dense) bool {
	if d.rows != other.rows || d.cols != other.cols {
		return false
	}
	if d.fused != nil || other.fused != nil {
		for i := 0; i < d.rows; i++ {
			a, _ := d.Row(i)
			b, _ := other.Row(i)
			for j := range a {
				//m3vet:allow floateq -- Equal is the exact bit-parity comparison API
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < d.rows; i++ {
		a := d.RawRow(i)
		b := other.RawRow(i)
		for j := range a {
			//m3vet:allow floateq -- Equal is the exact bit-parity comparison API
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large ones are
// summarized.
func (d *Dense) String() string {
	if d.rows*d.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d, %d bytes)", d.rows, d.cols, d.SizeBytes())
	}
	s := fmt.Sprintf("Dense(%dx%d)[", d.rows, d.cols)
	for i := 0; i < d.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < d.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", d.At(i, j))
		}
	}
	return s + "]"
}
