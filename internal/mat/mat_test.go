package mat

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"m3/internal/exec"
	"m3/internal/mmap"
	"m3/internal/store"
	"m3/internal/vm"
)

func TestNewDenseAtSet(t *testing.T) {
	d := NewDense(3, 4)
	r, c := d.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	d.Set(1, 2, 7.5)
	if got := d.At(1, 2); got != 7.5 {
		t.Errorf("At = %v", got)
	}
	if d.SizeBytes() != 96 {
		t.Errorf("SizeBytes = %d", d.SizeBytes())
	}
}

func TestNewDenseFromAliases(t *testing.T) {
	backing := make([]float64, 6)
	d := NewDenseFrom(backing, 2, 3)
	d.Set(1, 1, 5)
	if backing[4] != 5 {
		t.Error("NewDenseFrom copied instead of aliasing")
	}
}

func TestNewDenseFromTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseFrom(make([]float64, 5), 2, 3)
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v: expected panic", dims)
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	d := NewDense(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d): expected panic", idx[0], idx[1])
				}
			}()
			d.At(idx[0], idx[1])
		}()
	}
}

func TestNewDenseStoreValidates(t *testing.T) {
	s := store.NewHeap(5)
	if _, err := NewDenseStore(s, 2, 3); err == nil {
		t.Error("expected error for short store")
	}
	d, err := NewDenseStore(store.NewHeap(6), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Store() == nil {
		t.Error("Store() nil")
	}
}

func fillSeq(d *Dense) {
	r, c := d.Dims()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			d.Set(i, j, float64(i*c+j))
		}
	}
}

func TestRowAndRawRow(t *testing.T) {
	d := NewDense(3, 2)
	fillSeq(d)
	row, stall := d.Row(1)
	if stall != 0 {
		t.Errorf("heap stall = %v", stall)
	}
	if row[0] != 2 || row[1] != 3 {
		t.Errorf("Row(1) = %v", row)
	}
	row[0] = 42 // aliases
	if d.At(1, 0) != 42 {
		t.Error("Row does not alias storage")
	}
	if raw := d.RawRow(2); raw[1] != 5 {
		t.Errorf("RawRow(2) = %v", raw)
	}
}

func TestSetRow(t *testing.T) {
	d := NewDense(2, 3)
	d.SetRow(1, []float64{7, 8, 9})
	if d.At(1, 2) != 9 {
		t.Error("SetRow failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong width")
		}
	}()
	d.SetRow(0, []float64{1})
}

func TestRowWindow(t *testing.T) {
	d := NewDense(4, 2)
	fillSeq(d)
	w := d.RowWindow(1, 3)
	if w.Rows() != 2 || w.Cols() != 2 {
		t.Fatalf("window dims %dx%d", w.Rows(), w.Cols())
	}
	if w.At(0, 0) != 2 || w.At(1, 1) != 5 {
		t.Errorf("window content wrong: %v %v", w.At(0, 0), w.At(1, 1))
	}
	w.Set(0, 0, 99)
	if d.At(1, 0) != 99 {
		t.Error("window does not alias parent")
	}
	// Window of a window.
	w2 := w.RowWindow(1, 2)
	if w2.At(0, 0) != 4 {
		t.Errorf("nested window = %v", w2.At(0, 0))
	}
}

func TestForEachRowOrder(t *testing.T) {
	d := NewDense(5, 1)
	fillSeq(d)
	var seen []int
	d.ForEachRow(func(i int, row []float64) {
		seen = append(seen, i)
		if row[0] != float64(i) {
			t.Errorf("row %d = %v", i, row[0])
		}
	})
	for i, v := range seen {
		if v != i {
			t.Fatalf("rows visited out of order: %v", seen)
		}
	}
}

func TestMulVec(t *testing.T) {
	d := NewDense(2, 3)
	fillSeq(d) // [0 1 2; 3 4 5]
	y := make([]float64, 2)
	d.MulVec(y, []float64{1, 1, 1})
	if y[0] != 3 || y[1] != 12 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestMulTransVec(t *testing.T) {
	d := NewDense(2, 3)
	fillSeq(d)
	y := make([]float64, 3)
	d.MulTransVec(y, []float64{1, 1})
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("MulTransVec = %v want %v", y, want)
		}
	}
}

func TestMulVecShapePanics(t *testing.T) {
	d := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.MulVec(make([]float64, 2), make([]float64, 2))
}

func TestFillCloneEqual(t *testing.T) {
	d := NewDense(3, 3)
	d.Fill(2.5)
	if d.At(2, 2) != 2.5 {
		t.Error("Fill failed")
	}
	c := d.Clone()
	if !c.Equal(d) {
		t.Error("Clone not equal")
	}
	c.Set(0, 0, -1)
	if c.Equal(d) {
		t.Error("Equal missed difference")
	}
	if d.Equal(NewDense(3, 2)) {
		t.Error("Equal ignored shape")
	}
}

func TestString(t *testing.T) {
	d := NewDense(2, 2)
	fillSeq(d)
	if got := d.String(); got != "Dense(2x2)[0 1; 2 3]" {
		t.Errorf("String = %q", got)
	}
	big := NewDense(100, 100)
	if !strings.Contains(big.String(), "100x100") {
		t.Errorf("big String = %q", big.String())
	}
}

func TestDenseOverMappedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mat.bin")
	ms, err := store.CreateMapped(path, 12)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDenseStore(ms, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	fillSeq(d)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	data, region, err := mmap.OpenFloat64(path)
	if err != nil {
		t.Fatal(err)
	}
	defer region.Unmap()
	d2, err := NewDenseStore(store.ViewMapped(region, data, 0), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The mapped matrix must be indistinguishable from the heap one.
	y := make([]float64, 3)
	d2.MulVec(y, []float64{1, 0, 0, 0})
	if y[0] != 0 || y[1] != 4 || y[2] != 8 {
		t.Errorf("mapped MulVec = %v", y)
	}
}

func TestDenseOverPagedStoreAccountsStalls(t *testing.T) {
	data := make([]float64, 4096) // 8 pages at 4 KiB
	ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
		PageSize:          4096,
		CacheBytes:        2 * 4096, // 2-page cache → thrash
		Disk:              vm.DiskModel{BandwidthBytes: 1e6},
		MinReadAheadPages: 1, MaxReadAheadPages: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDenseStore(ps, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 64)
	x := make([]float64, 64)
	stall1 := d.MulVec(y, x)
	stall2 := d.MulVec(y, x)
	if stall1 <= 0 || stall2 <= 0 {
		t.Errorf("paged scans did not stall: %v, %v", stall1, stall2)
	}
	if ps.Stats().MajorFaults == 0 {
		t.Error("no faults recorded")
	}
}

func TestColTo(t *testing.T) {
	d := NewDense(3, 2)
	fillSeq(d) // [0 1; 2 3; 4 5]
	col := make([]float64, 3)
	d.ColTo(1, col)
	if col[0] != 1 || col[1] != 3 || col[2] != 5 {
		t.Errorf("ColTo = %v", col)
	}
	for _, bad := range []func(){
		func() { d.ColTo(2, col) },
		func() { d.ColTo(0, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestColumnTraversalThrashesPagedStore(t *testing.T) {
	// Row-major matrix, tiny page cache: a full column traversal
	// must fault far more than a row scan of the same element count.
	data := make([]float64, 64*64)
	newPaged := func() *vm.Paged {
		ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
			PageSize:          512, // 64 elements per page = one row
			CacheBytes:        4 * 512,
			Disk:              vm.DiskModel{BandwidthBytes: 1e6},
			MinReadAheadPages: 1, MaxReadAheadPages: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	psRow := newPaged()
	xRow, err := NewDenseStore(psRow, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	xRow.Row(0) // 64 elements along a row: 1 page
	rowFaults := psRow.Stats().MajorFaults

	psCol := newPaged()
	xCol, err := NewDenseStore(psCol, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 64)
	xCol.ColTo(0, dst) // 64 elements down a column: 64 pages
	colFaults := psCol.Stats().MajorFaults

	if colFaults < 16*rowFaults {
		t.Errorf("column faults (%d) not dramatically worse than row faults (%d)", colFaults, rowFaults)
	}
}

// Property: MulVec over a paged store returns the same numbers as over
// the heap — the M3 transparency invariant.
func TestPropertyBackendTransparency(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		rows := 1 + int(abs(seed)%16)
		cols := 1 + int(abs(seed/7)%16)
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = rng.next()
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.next()
		}

		heap := NewDenseFrom(data, rows, cols)
		yh := make([]float64, rows)
		heap.MulVec(yh, x)

		cp := make([]float64, len(data))
		copy(cp, data)
		ps, err := vm.NewPaged(cp, vm.PagedConfig{VM: vm.Config{
			PageSize: 64, CacheBytes: 128,
			Disk: vm.DiskModel{BandwidthBytes: 1e6},
		}})
		if err != nil {
			return false
		}
		paged, err := NewDenseStore(ps, rows, cols)
		if err != nil {
			return false
		}
		yp := make([]float64, rows)
		paged.MulVec(yp, x)

		for i := range yh {
			if math.Abs(yh[i]-yp[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// tiny deterministic PRNG for property tests
type xorshift struct{ s uint64 }

func newRand(seed int64) *xorshift {
	u := uint64(seed)
	if u == 0 {
		u = 0x9e3779b97f4a7c15
	}
	return &xorshift{s: u}
}

func (x *xorshift) next() float64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return float64(x.s%2000)/1000 - 1
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// fusedPanics asserts op panics (fused views reject writes and
// raw-aliasing accessors).
func fusedPanics(t *testing.T, name string, op func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a fused view did not panic", name)
		}
	}()
	op()
}

// TestNewFusedView: the virtual transformed view agrees with the
// materialized transform on every read path (At, Row, ForEachRow,
// Clone, Equal), composes when fused over a fused view, and rejects
// writes.
func TestNewFusedView(t *testing.T) {
	const rows, dIn, dOut = 37, 5, 4
	src := NewDense(rows, dIn)
	for i := 0; i < rows; i++ {
		for j := 0; j < dIn; j++ {
			src.Set(i, j, float64(i)+float64(j)/8)
		}
	}
	kernel := func() exec.RowKernel {
		return func(dst, row []float64) []float64 {
			for j := 0; j < dOut; j++ {
				dst[j] = row[j] - row[j+1]
			}
			return dst
		}
	}
	f := NewFused(src, dOut, kernel)
	if !f.IsFused() || src.IsFused() {
		t.Fatal("IsFused: view false or source true")
	}
	if r, c := f.Dims(); r != rows || c != dOut {
		t.Fatalf("fused dims %dx%d, want %dx%d", r, c, rows, dOut)
	}

	// Materialized reference.
	want := NewDense(rows, dOut)
	k := kernel()
	buf := make([]float64, dOut)
	for i := 0; i < rows; i++ {
		row, _ := src.Row(i)
		want.SetRow(i, k(buf, row))
	}

	for i := 0; i < rows; i++ {
		for j := 0; j < dOut; j++ {
			if got := f.At(i, j); got != want.At(i, j) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want.At(i, j))
			}
		}
	}
	row3, _ := f.Row(3)
	wrow3, _ := want.Row(3)
	for j := range row3 {
		if row3[j] != wrow3[j] {
			t.Fatalf("Row(3)[%d] = %v, want %v", j, row3[j], wrow3[j])
		}
	}
	next := 0
	f.ForEachRow(func(i int, row []float64) {
		if i != next {
			t.Fatalf("ForEachRow out of order: %d, want %d", i, next)
		}
		next++
		wr, _ := want.Row(i)
		for j := range row {
			if row[j] != wr[j] {
				t.Fatalf("ForEachRow(%d)[%d] = %v, want %v", i, j, row[j], wr[j])
			}
		}
	})
	if next != rows {
		t.Fatalf("ForEachRow visited %d rows, want %d", next, rows)
	}

	clone := f.Clone()
	if clone.IsFused() {
		t.Error("Clone of a fused view is still fused")
	}
	if !clone.Equal(want) || !f.Equal(want) || !f.Equal(clone) {
		t.Error("fused view, clone and materialized reference disagree")
	}

	// Nested fusion composes: a second stage over the fused view.
	f2 := NewFused(f, dOut-1, func() exec.RowKernel {
		return func(dst, row []float64) []float64 {
			for j := 0; j < dOut-1; j++ {
				dst[j] = 10 * row[j+1]
			}
			return dst
		}
	})
	for i := 0; i < rows; i++ {
		for j := 0; j < dOut-1; j++ {
			if got, wantv := f2.At(i, j), 10*want.At(i, j+1); got != wantv {
				t.Fatalf("nested At(%d,%d) = %v, want %v", i, j, got, wantv)
			}
		}
	}

	fusedPanics(t, "Set", func() { f.Set(0, 0, 1) })
	fusedPanics(t, "SetRow", func() { f.SetRow(0, make([]float64, dOut)) })
	fusedPanics(t, "RawRow", func() { f.RawRow(0) })
	fusedPanics(t, "Fill", func() { f.Fill(1) })
	if _, ok := f.Contiguous(); ok {
		t.Error("fused view claims contiguous data")
	}
}
