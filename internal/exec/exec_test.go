package exec_test

import (
	"context"
	"m3/internal/fit"
	"path/filepath"
	"runtime"
	"testing"

	"m3/internal/exec"
	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/logreg"
	"m3/internal/mmap"
	"m3/internal/store"
	"m3/internal/vm"
)

func TestPartitionCoversExactlyOnce(t *testing.T) {
	cases := []struct{ n, itemBytes, target int }{
		{1, 8, 0},
		{100, 784 * 8, 0},
		{4096, 8, 4096},
		{17, 16, 1},
		{1000, 100000, 0}, // item larger than a block
	}
	for _, c := range cases {
		blocks := exec.Partition(c.n, c.itemBytes, c.target)
		next := 0
		for _, b := range blocks {
			if b.Lo != next || b.Hi <= b.Lo {
				t.Fatalf("Partition(%v): bad block %+v after %d", c, b, next)
			}
			next = b.Hi
		}
		if next != c.n {
			t.Errorf("Partition(%v): covered %d of %d items", c, next, c.n)
		}
	}
	if got := exec.Partition(0, 8, 0); got != nil {
		t.Errorf("Partition(0) = %v, want nil", got)
	}
}

// TestPartitionIsPageAligned covers the divisible case: when the
// item size divides the page-rounded budget, interior block spans are
// exact page multiples.
func TestPartitionIsPageAligned(t *testing.T) {
	ps := mmap.PageSize()
	blocks := exec.Partition(1<<20, 8, 0)
	if len(blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(blocks))
	}
	for _, b := range blocks[:len(blocks)-1] {
		if (b.Len()*8)%ps != 0 {
			t.Errorf("block %+v spans %d bytes, not a page multiple", b, b.Len()*8)
		}
	}
}

// TestMapReduceDeterministicAcrossWorkers checks the core contract:
// the reduce result is bit-identical for every worker count, because
// the partition and merge order never consult it.
func TestMapReduceDeterministicAcrossWorkers(t *testing.T) {
	blocks := exec.Partition(10000, 8, 4096)
	run := func(workers int) float64 {
		sum, _ := exec.MapReduce(context.Background(), blocks, workers,
			func() *float64 { return new(float64) }, nil,
			func(s *float64, b exec.Block) {
				for i := b.Lo; i < b.Hi; i++ {
					*s += 1.0 / float64(i+1)
				}
			},
			func(dst, src *float64) { *dst += *src })
		return *sum
	}
	want := run(1)
	for _, workers := range []int{2, 3, 7, runtime.NumCPU(), 64} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: %v != %v (workers=1)", workers, got, want)
		}
	}
}

// digits builds a labelled heap matrix for the trainer determinism
// tests.
func digits(t *testing.T, n int) (*mat.Dense, []float64) {
	t.Helper()
	g := infimnist.Generator{Seed: 11}
	xs, labels := g.Matrix(0, int64(n))
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]float64, n)
	for i, v := range labels {
		if v == 0 {
			y[i] = 1
		}
	}
	return x, y
}

// TestLogregGradientDeterministicAcrossWorkers is the ISSUE's table
// test: the block-parallel logreg loss and gradient are bit-identical
// for workers ∈ {1, 2, 7, NumCPU}.
func TestLogregGradientDeterministicAcrossWorkers(t *testing.T) {
	const n = 200
	x, y := digits(t, n)
	params := make([]float64, infimnist.Features+1)
	for i := range params {
		params[i] = 0.01 * float64(i%17-8)
	}

	eval := func(workers int) (float64, []float64) {
		obj, err := logreg.NewParallelObjective(x, y, 1e-3, true, workers)
		if err != nil {
			t.Fatal(err)
		}
		grad := make([]float64, obj.Dim())
		return obj.Eval(params, grad), grad
	}
	refLoss, refGrad := eval(1)
	for _, workers := range []int{2, 7, runtime.NumCPU()} {
		loss, grad := eval(workers)
		if loss != refLoss {
			t.Errorf("workers=%d: loss %v != %v", workers, loss, refLoss)
		}
		for j := range grad {
			if grad[j] != refGrad[j] {
				t.Fatalf("workers=%d: grad[%d] %v != %v", workers, j, grad[j], refGrad[j])
			}
		}
	}
}

// TestKMeansAssignmentDeterministicAcrossWorkers: one Lloyd iteration
// from fixed centroids produces identical assignments, centroids and
// inertia for every worker count.
func TestKMeansAssignmentDeterministicAcrossWorkers(t *testing.T) {
	const n, k = 200, 5
	x, _ := digits(t, n)
	g := infimnist.Generator{Seed: 12}
	init := mat.NewDense(k, infimnist.Features)
	row := make([]float64, infimnist.Features)
	for c := 0; c < k; c++ {
		g.Fill(row, int64(c*3+1))
		init.SetRow(c, row)
	}

	run := func(workers int) *kmeans.Result {
		res, err := kmeans.Run(context.Background(), x, kmeans.Options{
			K: k, MaxIterations: 3, InitCentroids: init,
			RunAllIterations: true,
			FitOptions:       fit.FitOptions{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 7, runtime.NumCPU()} {
		res := run(workers)
		if res.Inertia != ref.Inertia {
			t.Errorf("workers=%d: inertia %v != %v", workers, res.Inertia, ref.Inertia)
		}
		for i := range res.Assignments {
			if res.Assignments[i] != ref.Assignments[i] {
				t.Fatalf("workers=%d: assignment[%d] differs", workers, i)
			}
		}
		if !res.Centroids.Equal(ref.Centroids) {
			t.Errorf("workers=%d: centroids differ", workers)
		}
	}
}

// TestConcurrentScanMappedStore drives many concurrent blocked scans
// through one shared mmap-backed store; under -race this verifies the
// Touch accounting and block scheduler are data-race free.
func TestConcurrentScanMappedStore(t *testing.T) {
	const rows, cols = 512, 64
	path := filepath.Join(t.TempDir(), "scan.bin")
	ms, err := store.CreateMapped(path, rows*cols)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	data := ms.Data()
	for i := range data {
		data[i] = float64(i % 97)
	}
	x, err := mat.NewDenseStore(ms, rows, cols)
	if err != nil {
		t.Fatal(err)
	}

	vec := make([]float64, cols)
	for j := range vec {
		vec[j] = 1 / float64(j+1)
	}
	want := make([]float64, rows)
	x.MulVec(want, vec)

	done := make(chan []float64, 8)
	for g := 0; g < 8; g++ {
		go func() {
			y := make([]float64, rows)
			x.MulVecParallel(y, vec, 4)
			done <- y
		}()
	}
	for g := 0; g < 8; g++ {
		y := <-done
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("concurrent scan diverged at row %d: %v != %v", i, y[i], want[i])
			}
		}
	}
	if got := ms.Stats().BytesTouched; got <= 0 {
		t.Errorf("no bytes accounted: %d", got)
	}
}

// newTestPaged builds a paged store plus matrix view for scan tests.
func newTestPaged(t *testing.T, rows, cols int) ([]float64, *vm.Paged, *mat.Dense) {
	t.Helper()
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = float64(i)
	}
	ps, err := vm.NewPaged(data, vm.PagedConfig{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	x, err := mat.NewDenseStore(ps, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return data, ps, x
}

// TestPagedStoreScansParallel: a multi-worker scan over the simulated
// Paged store reduces to bit-identical values with intact fault
// accounting.
func TestPagedStoreScansParallel(t *testing.T) {
	const rows, cols = 4096, 32 // many pages so the partition has >4 blocks
	data, ps, x := newTestPaged(t, rows, cols)

	sum, stall, _ := exec.ReduceRows(x.Scan(4),
		func() *float64 { return new(float64) },
		func(s *float64, i int, row []float64) { *s += row[0] },
		func(dst, src *float64) { *dst += *src })
	if stall <= 0 {
		t.Errorf("paged scan reported no stall: %v", stall)
	}
	var want float64
	for i := 0; i < rows; i++ {
		want += data[i*cols]
	}
	if *sum != want {
		t.Errorf("paged reduce = %v, want %v", *sum, want)
	}
	if ps.Stats().MajorFaults == 0 {
		t.Error("paged scan recorded no faults")
	}

	// The same scan single-worker agrees bit for bit on values.
	seq, _, _ := exec.ReduceRows(x.Scan(1),
		func() *float64 { return new(float64) },
		func(s *float64, i int, row []float64) { *s += row[0] },
		func(dst, src *float64) { *dst += *src })
	if *seq != *sum {
		t.Errorf("parallel paged reduce %v != sequential %v", *sum, *seq)
	}
}

// TestEffectiveWorkersClamping: the pool clamps to the block count.
func TestEffectiveWorkersClamping(t *testing.T) {
	_, _, x := newTestPaged(t, 64, 32)
	small := x.Scan(64) // 64 rows of 32 cols: one page-budget block
	if got, blocks := small.EffectiveWorkers(), len(small.Blocks()); got != blocks {
		t.Errorf("EffectiveWorkers = %d want block count %d", got, blocks)
	}
}

// TestForEachRowParallelVisitsAllRows checks the non-reducing path.
func TestForEachRowParallelVisitsAllRows(t *testing.T) {
	const rows, cols = 300, 16
	x := mat.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		x.Set(i, 0, float64(i))
	}
	seen := make([]float64, rows)
	x.ForEachRowParallel(4, func(i int, row []float64) {
		seen[i] = row[0] + 1
	})
	for i := range seen {
		if seen[i] != float64(i)+1 {
			t.Fatalf("row %d not visited correctly: %v", i, seen[i])
		}
	}
}

// TestMapReduceCancellation: a cancelled context stops the sequential
// path before the next block and surfaces ctx.Err().
func TestMapReduceCancellation(t *testing.T) {
	blocks := exec.Partition(1000, 8, 4096)
	if len(blocks) < 2 {
		t.Fatalf("want multiple blocks, got %d", len(blocks))
	}
	ctx, cancel := context.WithCancel(context.Background())
	processed := 0
	_, err := exec.MapReduce(ctx, blocks, 1,
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, b exec.Block) {
			processed++
			cancel() // cancel from inside the first block
		},
		func(_, _ struct{}) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if processed != 1 {
		t.Errorf("processed %d blocks after cancellation, want 1", processed)
	}

	// Pre-cancelled parallel path: no block runs at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ran := false
	_, err = exec.MapReduce(ctx2, blocks, 4,
		func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, b exec.Block) { ran = true },
		func(_, _ struct{}) {})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("a block ran under a pre-cancelled context")
	}
}

// TestReduceRowsCancellation: the row-scan wrappers propagate the
// context error and leave unvisited rows untouched.
func TestReduceRowsCancellation(t *testing.T) {
	const rows, cols = 4096, 16
	x := mat.NewDense(rows, cols)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	_, _, err := exec.ReduceRows(x.ScanCtx(ctx, 4),
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int, row []float64) { visited++ },
		func(_, _ struct{}) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Errorf("visited %d rows under a pre-cancelled context", visited)
	}
}

// fusedTestKernel is a width-changing transform for the fusion tests:
// dOut = dIn-1, dst[j] = 2*src[j] + src[j+1]. Width change exercises
// the SrcCols read geometry against the Cols partition geometry.
func fusedTestKernel(dOut int) exec.RowKernel {
	return func(dst, src []float64) []float64 {
		for j := 0; j < dOut; j++ {
			dst[j] = 2*src[j] + src[j+1]
		}
		return dst
	}
}

// TestFusedScanParityAcrossWorkers: a fused scan must be bit-identical
// to materializing the transform and scanning the result — for every
// worker count. The consumer's per-block partials only merge equally
// if the fused partition follows the transformed width, so this pins
// the partition geometry too.
func TestFusedScanParityAcrossWorkers(t *testing.T) {
	const rows, dIn = 3000, 9
	const dOut = dIn - 1
	x := mat.NewDense(rows, dIn)
	for i := 0; i < rows; i++ {
		for j := 0; j < dIn; j++ {
			x.Set(i, j, 1/float64(i*dIn+j+1))
		}
	}
	// Reference: materialize, then reduce over the concrete matrix.
	m := mat.NewDense(rows, dOut)
	k := fusedTestKernel(dOut)
	buf := make([]float64, dOut)
	for i := 0; i < rows; i++ {
		row, _ := x.Row(i)
		m.SetRow(i, k(buf, row))
	}
	reduce := func(s exec.RowScan) []float64 {
		sum, _, err := exec.ReduceRows(s,
			func() []float64 { return make([]float64, dOut) },
			func(acc []float64, i int, row []float64) {
				if len(row) != dOut {
					t.Fatalf("row %d has width %d, want %d", i, len(row), dOut)
				}
				for j, v := range row {
					acc[j] += v * float64(i%17+1)
				}
			},
			func(dst, src []float64) {
				for j := range dst {
					dst[j] += src[j]
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
		// Fused scan built by hand over the source geometry.
		s := x.Scan(workers)
		s.SrcCols = s.Cols
		s.Cols = dOut
		s.Transform = func() exec.RowKernel { return fusedTestKernel(dOut) }
		// Small blocks so worker interleaving is real.
		s.BlockBytes = 4096
		ref := m.Scan(workers)
		ref.BlockBytes = 4096
		if got, want := reduce(s), reduce(ref); !equalSlices(got, want) {
			t.Errorf("workers=%d: fused reduce %v != materialized %v", workers, got, want)
		}
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFusedScanBlockDelivery: fused scans deliver single-row blocks
// with the transformed stride to block consumers, in ascending order
// within each partition block.
func TestFusedScanBlockDelivery(t *testing.T) {
	const rows, dIn = 257, 5
	const dOut = dIn - 1
	x := mat.NewDense(rows, dIn)
	for i := 0; i < rows; i++ {
		for j := 0; j < dIn; j++ {
			x.Set(i, j, float64(i*dIn+j))
		}
	}
	s := x.Scan(1)
	s.SrcCols = s.Cols
	s.Cols = dOut
	s.Transform = func() exec.RowKernel { return fusedTestKernel(dOut) }
	last := -1
	_, _, err := exec.ReduceRowBlocks(s,
		func() struct{} { return struct{}{} },
		func(_ struct{}, lo, hi int, block []float64, stride int) {
			if hi != lo+1 {
				t.Fatalf("fused block [%d,%d), want single row", lo, hi)
			}
			if stride != dOut || len(block) < dOut {
				t.Fatalf("fused block stride %d len %d, want %d", stride, len(block), dOut)
			}
			if lo != last+1 {
				t.Fatalf("rows out of order: %d after %d", lo, last)
			}
			last = lo
			want := 2*float64(lo*dIn) + float64(lo*dIn+1)
			if block[0] != want {
				t.Fatalf("row %d transformed to %v, want %v", lo, block[0], want)
			}
		},
		func(_, _ struct{}) {})
	if err != nil {
		t.Fatal(err)
	}
	if last != rows-1 {
		t.Errorf("visited up to row %d, want %d", last, rows-1)
	}
}

// TestFusedScanCancellation: cancellation mid-scan stops a fused chain
// within one block and surfaces ctx.Err(); a pre-cancelled context
// never invokes the kernel.
func TestFusedScanCancellation(t *testing.T) {
	const rows, dIn = 4096, 8
	x := mat.NewDense(rows, dIn)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	kernelRuns := 0
	s := x.ScanCtx(ctx, 4)
	s.SrcCols = s.Cols
	s.Cols = dIn - 1
	s.Transform = func() exec.RowKernel {
		return func(dst, src []float64) []float64 {
			kernelRuns++
			return dst
		}
	}
	_, _, err := exec.ReduceRows(s,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int, row []float64) {},
		func(_, _ struct{}) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if kernelRuns != 0 {
		t.Errorf("kernel ran %d times under a pre-cancelled context", kernelRuns)
	}
}
