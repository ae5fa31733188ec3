package linreg

import (
	"context"
	"math"
	"testing"

	"m3/internal/mat"
	"m3/internal/vm"
)

// planarData builds y = 3x₀ - 2x₁ + 5 with small deterministic noise.
func planarData(n int, noise float64) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	r := uint64(31337)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%2000)/1000 - 1
	}
	for i := 0; i < n; i++ {
		a, b := next()*5, next()*5
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = 3*a - 2*b + 5 + noise*next()
	}
	return x, y
}

func TestTrainRecoversPlane(t *testing.T) {
	x, y := planarData(300, 0)
	m, err := Train(context.Background(), x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-3) > 1e-3 || math.Abs(m.Weights[1]+2) > 1e-3 {
		t.Errorf("weights = %v want [3 -2]", m.Weights)
	}
	if math.Abs(m.Intercept-5) > 1e-3 {
		t.Errorf("intercept = %v want 5", m.Intercept)
	}
	if r2 := m.R2(x, y); r2 < 0.9999 {
		t.Errorf("R² = %v", r2)
	}
}

func TestTrainExactMatchesLBFGS(t *testing.T) {
	x, y := planarData(200, 0.1)
	lb, err := Train(context.Background(), x, y, Options{Lambda: 1e-6, GradTol: 1e-12, MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := TrainExact(context.Background(), x, y, Options{Lambda: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lb.Weights {
		if math.Abs(lb.Weights[i]-ex.Weights[i]) > 1e-5 {
			t.Errorf("weight %d: lbfgs %v vs exact %v", i, lb.Weights[i], ex.Weights[i])
		}
	}
	if math.Abs(lb.Intercept-ex.Intercept) > 1e-5 {
		t.Errorf("intercept: lbfgs %v vs exact %v", lb.Intercept, ex.Intercept)
	}
}

func TestTrainExactNoIntercept(t *testing.T) {
	// y = 2x exactly through the origin.
	x := mat.NewDense(50, 1)
	y := make([]float64, 50)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, float64(i))
		y[i] = 2 * float64(i)
	}
	m, err := TrainExact(context.Background(), x, y, Options{NoIntercept: true, Lambda: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-2) > 1e-6 {
		t.Errorf("weight = %v want 2", m.Weights[0])
	}
	if m.Intercept != 0 {
		t.Errorf("intercept = %v", m.Intercept)
	}
}

func TestValidation(t *testing.T) {
	x := mat.NewDense(3, 2)
	if _, err := NewObjective(x, []float64{1, 2}, 0, true); err == nil {
		t.Error("accepted target mismatch")
	}
	if _, err := NewObjective(x, []float64{1, 2, 3}, -1, true); err == nil {
		t.Error("accepted negative lambda")
	}
	if _, err := TrainExact(context.Background(), x, []float64{1}, Options{}); err == nil {
		t.Error("TrainExact accepted mismatch")
	}
}

func TestObjectiveGradientNumeric(t *testing.T) {
	x, y := planarData(30, 0.3)
	obj, err := NewObjective(x, y, 0.05, true)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{0.5, -1, 2}
	g := make([]float64, 3)
	obj.Eval(params, g)
	const h = 1e-6
	scratch := make([]float64, 3)
	for i := 0; i < 3; i++ {
		orig := params[i]
		params[i] = orig + h
		fp := obj.Eval(params, scratch)
		params[i] = orig - h
		fm := obj.Eval(params, scratch)
		params[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(g[i]-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Errorf("grad[%d] = %v numeric %v", i, g[i], want)
		}
	}
}

func TestRidgeShrinksWeights(t *testing.T) {
	x, y := planarData(100, 0.5)
	small, err := TrainExact(context.Background(), x, y, Options{Lambda: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	big, err := TrainExact(context.Background(), x, y, Options{Lambda: 10})
	if err != nil {
		t.Fatal(err)
	}
	normSmall := math.Hypot(small.Weights[0], small.Weights[1])
	normBig := math.Hypot(big.Weights[0], big.Weights[1])
	if normBig >= normSmall {
		t.Errorf("ridge did not shrink: λ=1e-9 → %v, λ=10 → %v", normSmall, normBig)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	// A = [[1,2],[2,1]] has a negative eigenvalue.
	if _, err := choleskySolve([]float64{1, 2, 2, 1}, []float64{1, 1}, 2); err == nil {
		t.Error("accepted indefinite matrix")
	}
}

func TestMSEAndR2Degenerate(t *testing.T) {
	m := &Model{Weights: []float64{1}}
	x := mat.NewDense(1, 1)
	empty := x.RowWindow(0, 1)
	if got := m.MSE(empty, []float64{0}); got != 1e99 && got >= 0 {
		// just checking it's finite and non-panicking
		_ = got
	}
	// Constant targets: R² defined as 1 when perfectly predicted.
	x2 := mat.NewDense(3, 1)
	y2 := []float64{0, 0, 0}
	m2 := &Model{Weights: []float64{0}}
	if got := m2.R2(x2, y2); got != 1 {
		t.Errorf("R² on constant exact fit = %v want 1", got)
	}
}

func TestTrainOverPagedStore(t *testing.T) {
	// Transparency: linreg over a paged store matches heap exactly.
	xh, y := planarData(64, 0.2)
	data := make([]float64, 128)
	for i := 0; i < 64; i++ {
		data[2*i] = xh.At(i, 0)
		data[2*i+1] = xh.At(i, 1)
	}
	ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
		PageSize: 256, CacheBytes: 512,
		Disk: vm.DiskModel{BandwidthBytes: 1e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := mat.NewDenseStore(ps, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := Train(context.Background(), xh, y, Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Train(context.Background(), xp, y, Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mh.Weights {
		if mh.Weights[i] != mp.Weights[i] {
			t.Errorf("weight %d differs across backends", i)
		}
	}
	if ps.Stats().MajorFaults == 0 {
		t.Error("paged store never faulted")
	}
}
