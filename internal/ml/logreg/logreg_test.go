package logreg

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/store"
	"m3/internal/vm"
)

// twoBlobs builds a linearly separable 2-D binary problem.
func twoBlobs(n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	r := uint64(12345)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%1000)/1000 - 0.5
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, next()+2)
			x.Set(i, 1, next()+2)
			y[i] = 1
		} else {
			x.Set(i, 0, next()-2)
			x.Set(i, 1, next()-2)
			y[i] = 0
		}
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	x, y := twoBlobs(200)
	m, err := Train(context.Background(), x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.99 {
		t.Errorf("training accuracy = %v", acc)
	}
	// Decision direction must be positive for both features.
	if m.Weights[0] <= 0 || m.Weights[1] <= 0 {
		t.Errorf("weights = %v, expected positive", m.Weights)
	}
	// Probabilities are calibrated around the boundary.
	if p := m.Prob([]float64{2, 2}); p < 0.9 {
		t.Errorf("P(blob1 center) = %v", p)
	}
	if p := m.Prob([]float64{-2, -2}); p > 0.1 {
		t.Errorf("P(blob0 center) = %v", p)
	}
}

func TestTrainNoIntercept(t *testing.T) {
	x, y := twoBlobs(100)
	m, err := Train(context.Background(), x, y, Options{NoIntercept: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Intercept != 0 {
		t.Errorf("intercept = %v, want 0", m.Intercept)
	}
	if acc := m.Accuracy(x, y); acc < 0.95 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestObjectiveValidation(t *testing.T) {
	x := mat.NewDense(3, 2)
	if _, err := NewParallelObjective(x, []float64{0, 1}, 0.1, true, 1); err == nil {
		t.Error("accepted label/row mismatch")
	}
	if _, err := NewParallelObjective(x, []float64{0, 1, 2}, 0.1, true, 1); err == nil {
		t.Error("accepted label 2")
	}
	if _, err := NewParallelObjective(x, []float64{0, 1, 1}, -1, true, 1); err == nil {
		t.Error("accepted negative lambda")
	}
}

// numericGradCheck compares the analytic gradient to central
// differences.
func numericGradCheck(t *testing.T, obj interface {
	Dim() int
	Eval(x, g []float64) float64
}, x []float64, tol float64) {
	t.Helper()
	n := obj.Dim()
	g := make([]float64, n)
	obj.Eval(x, g)
	h := 1e-6
	gp := make([]float64, n)
	for i := 0; i < n; i++ {
		orig := x[i]
		x[i] = orig + h
		fp := obj.Eval(x, gp)
		x[i] = orig - h
		fm := obj.Eval(x, gp)
		x[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(g[i]-want) > tol*math.Max(1, math.Abs(want)) {
			t.Errorf("grad[%d] = %v, numeric %v", i, g[i], want)
		}
	}
}

func TestObjectiveGradient(t *testing.T) {
	x, y := twoBlobs(40)
	obj, err := NewParallelObjective(x, y, 0.05, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{0.3, -0.2, 0.1}
	numericGradCheck(t, obj, params, 1e-5)
}

func TestObjectiveCountsScans(t *testing.T) {
	x, y := twoBlobs(10)
	obj, err := NewParallelObjective(x, y, 0, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, obj.Dim())
	obj.Eval(make([]float64, obj.Dim()), g)
	obj.Eval(make([]float64, obj.Dim()), g)
	if obj.Scans != 2 {
		t.Errorf("Scans = %d want 2", obj.Scans)
	}
}

func TestObjectiveAtZeroIsLog2(t *testing.T) {
	x, y := twoBlobs(50)
	obj, err := NewParallelObjective(x, y, 0, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, obj.Dim())
	if got := obj.Eval(make([]float64, obj.Dim()), g); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("f(0) = %v want ln2", got)
	}
}

func TestTrainOverPagedStoreSameModel(t *testing.T) {
	// The M3 claim: training over a paged (out-of-core) store yields
	// bit-identical models to heap training.
	xh, y := twoBlobs(60)
	data := make([]float64, 120)
	for i := 0; i < 60; i++ {
		data[i*2] = xh.At(i, 0)
		data[i*2+1] = xh.At(i, 1)
	}
	ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
		PageSize:   256,
		CacheBytes: 512, // force paging
		Disk:       vm.DiskModel{BandwidthBytes: 1e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := mat.NewDenseStore(ps, 60, 2)
	if err != nil {
		t.Fatal(err)
	}

	mh, err := Train(context.Background(), xh, y, Options{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Train(context.Background(), xp, y, Options{MaxIterations: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mh.Weights {
		if mh.Weights[i] != mp.Weights[i] {
			t.Errorf("weight %d differs: %v vs %v", i, mh.Weights[i], mp.Weights[i])
		}
	}
	if mh.Intercept != mp.Intercept {
		t.Errorf("intercepts differ: %v vs %v", mh.Intercept, mp.Intercept)
	}
	if ps.Stats().MajorFaults == 0 {
		t.Error("paged training never faulted — cache config wrong")
	}
}

func TestSoftmaxGradient(t *testing.T) {
	g := infimnist.Generator{Seed: 4}
	xs, labels := g.Matrix(0, 20)
	y := make([]int, 20)
	for i, v := range labels {
		y[i] = int(v)
	}
	x := mat.NewDenseFrom(xs, 20, infimnist.Features)
	obj, err := NewSoftmaxObjective(x, y, 10, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	// Check a subset of coordinates (full 7850-dim check is slow).
	params := make([]float64, obj.Dim())
	for i := range params {
		params[i] = math.Sin(float64(i)) * 0.01
	}
	gr := make([]float64, obj.Dim())
	obj.Eval(params, gr)
	h := 1e-6
	scratch := make([]float64, obj.Dim())
	for _, i := range []int{0, 5, 783, 784, 4000, obj.Dim() - 11, obj.Dim() - 1} {
		orig := params[i]
		params[i] = orig + h
		fp := obj.Eval(params, scratch)
		params[i] = orig - h
		fm := obj.Eval(params, scratch)
		params[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(gr[i]-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Errorf("softmax grad[%d] = %v, numeric %v", i, gr[i], want)
		}
	}
}

func TestSoftmaxValidation(t *testing.T) {
	x := mat.NewDense(2, 3)
	if _, err := NewSoftmaxObjective(x, []int{0, 1}, 1, 0, true); err == nil {
		t.Error("accepted 1 class")
	}
	if _, err := NewSoftmaxObjective(x, []int{0}, 3, 0, true); err == nil {
		t.Error("accepted mismatched labels")
	}
	if _, err := NewSoftmaxObjective(x, []int{0, 3}, 3, 0, true); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestSoftmaxLearnsDigits(t *testing.T) {
	g := infimnist.Generator{Seed: 11}
	const n = 300
	xs, labels := g.Matrix(0, n)
	y := make([]int, n)
	for i, v := range labels {
		y[i] = int(v)
	}
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	m, err := TrainSoftmax(context.Background(), x, y, 10, Options{MaxIterations: 40, Lambda: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.9 {
		t.Errorf("training accuracy on digits = %v, want >= 0.9", acc)
	}
	// Held-out digits from the same generator.
	xt, tl := g.Matrix(10000, 100)
	yt := make([]int, 100)
	for i, v := range tl {
		yt[i] = int(v)
	}
	xm := mat.NewDenseFrom(xt, 100, infimnist.Features)
	if acc := m.Accuracy(xm, yt); acc < 0.8 {
		t.Errorf("held-out accuracy = %v, want >= 0.8", acc)
	}
}

func TestSoftmaxScoresMatchPredict(t *testing.T) {
	g := infimnist.Generator{Seed: 2}
	xs, labels := g.Matrix(0, 50)
	y := make([]int, 50)
	for i, v := range labels {
		y[i] = int(v)
	}
	x := mat.NewDenseFrom(xs, 50, infimnist.Features)
	m, err := TrainSoftmax(context.Background(), x, y, 10, Options{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, 10)
	row := xs[:infimnist.Features]
	m.Scores(row, scores)
	best, bestC := math.Inf(-1), -1
	for c, s := range scores {
		if s > best {
			best, bestC = s, c
		}
	}
	if got := m.Predict(row); got != bestC {
		t.Errorf("Predict = %d, argmax Scores = %d", got, bestC)
	}
}

func TestTrainMappedDataset(t *testing.T) {
	// End-to-end: generate → write → map → train, all through the
	// public paths (the quickstart flow).
	g := infimnist.Generator{Seed: 21}
	path := filepath.Join(t.TempDir(), "digits.m3")
	if err := g.WriteDataset(path, 100); err != nil {
		t.Fatal(err)
	}
	ms, err := store.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	// Payload layout: header page (512 floats), then X, then labels.
	const headerElems = 512
	n, d := 100, infimnist.Features
	xAll := ms.Data()[headerElems : headerElems+n*d]
	lbl := ms.Data()[headerElems+n*d : headerElems+n*d+n]
	x := mat.NewDenseFrom(xAll, n, d)
	// Binary task: digit 0 vs rest.
	y := make([]float64, n)
	for i, v := range lbl {
		if v == 0 {
			y[i] = 1
		}
	}
	m, err := Train(context.Background(), x, y, Options{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.95 {
		t.Errorf("mapped training accuracy = %v", acc)
	}
}
