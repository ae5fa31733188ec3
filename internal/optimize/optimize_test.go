package optimize

import (
	"context"
	"math"
	"testing"
)

// funcObjective adapts a plain function to the Objective interface.
type funcObjective struct {
	N int
	F func(x, grad []float64) float64
}

func (f funcObjective) Dim() int                       { return f.N }
func (f funcObjective) Eval(x, grad []float64) float64 { return f.F(x, grad) }

// quadratic returns an Objective for f(x) = Σ cᵢ(xᵢ-tᵢ)², minimum at t.
func quadratic(c, t []float64) Objective {
	return funcObjective{N: len(c), F: func(x, grad []float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - t[i]
			f += c[i] * d * d
			grad[i] = 2 * c[i] * d
		}
		return f
	}}
}

// rosenbrock is the classic banana function, minimum 0 at (1,...,1).
func rosenbrock(n int) Objective {
	return funcObjective{N: n, F: func(x, grad []float64) float64 {
		var f float64
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i+1 < n; i++ {
			a := x[i+1] - x[i]*x[i]
			b := 1 - x[i]
			f += 100*a*a + b*b
			grad[i] += -400*x[i]*a - 2*b
			grad[i+1] += 200 * a
		}
		return f
	}}
}

func TestLBFGSQuadratic(t *testing.T) {
	obj := quadratic([]float64{1, 10, 100}, []float64{1, -2, 3})
	res, err := LBFGS(context.Background(), obj, []float64{0, 0, 0}, LBFGSParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("did not converge: %v", res.Status)
	}
	want := []float64{1, -2, 3}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-5 {
			t.Errorf("x[%d] = %v want %v", i, res.X[i], want[i])
		}
	}
	if res.Value > 1e-9 {
		t.Errorf("value = %v", res.Value)
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	for _, n := range []int{2, 10, 50} {
		obj := rosenbrock(n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -1.2
		}
		res, err := LBFGS(context.Background(), obj, x0, LBFGSParams{MaxIterations: 500, GradTol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value > 1e-8 {
			t.Errorf("n=%d: value = %v after %d iters (%v)", n, res.Value, res.Iterations, res.Status)
		}
		for i := 0; i < n; i++ {
			if math.Abs(res.X[i]-1) > 1e-3 {
				t.Errorf("n=%d: x[%d] = %v want 1", n, i, res.X[i])
				break
			}
		}
	}
}

func TestLBFGSAlreadyConverged(t *testing.T) {
	obj := quadratic([]float64{1}, []float64{5})
	res, err := LBFGS(context.Background(), obj, []float64{5}, LBFGSParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != GradientConverged || res.Iterations != 0 {
		t.Errorf("status=%v iters=%d, want immediate convergence", res.Status, res.Iterations)
	}
}

func TestLBFGSDimMismatch(t *testing.T) {
	obj := quadratic([]float64{1, 1}, []float64{0, 0})
	if _, err := LBFGS(context.Background(), obj, []float64{0}, LBFGSParams{}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestLBFGSRejectsNaNStart(t *testing.T) {
	obj := funcObjective{N: 1, F: func(x, grad []float64) float64 {
		grad[0] = 1
		return math.NaN()
	}}
	if _, err := LBFGS(context.Background(), obj, []float64{0}, LBFGSParams{}); err == nil {
		t.Error("expected error for NaN objective")
	}
}

func TestLBFGSMaxIterations(t *testing.T) {
	obj := rosenbrock(10)
	x0 := make([]float64, 10)
	res, err := LBFGS(context.Background(), obj, x0, LBFGSParams{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || res.Status != MaxIterationsReached {
		t.Errorf("iters=%d status=%v", res.Iterations, res.Status)
	}
}

func TestLBFGSCallbackStops(t *testing.T) {
	obj := rosenbrock(4)
	calls := 0
	res, err := LBFGS(context.Background(), obj, make([]float64, 4), LBFGSParams{
		Callback: func(info IterInfo) bool {
			calls++
			if info.Iter != calls {
				t.Errorf("callback iter %d on call %d", info.Iter, calls)
			}
			return calls < 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != CallbackStopped || calls != 2 {
		t.Errorf("status=%v calls=%d", res.Status, calls)
	}
}

func TestLBFGSMonotoneDecrease(t *testing.T) {
	obj := rosenbrock(8)
	x0 := make([]float64, 8)
	prev := math.Inf(1)
	_, err := LBFGS(context.Background(), obj, x0, LBFGSParams{
		MaxIterations: 50,
		Callback: func(info IterInfo) bool {
			if info.Value > prev+1e-12 {
				t.Errorf("iteration %d increased f: %v -> %v", info.Iter, prev, info.Value)
			}
			prev = info.Value
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLBFGSDoesNotModifyX0(t *testing.T) {
	obj := quadratic([]float64{1, 1}, []float64{3, 4})
	x0 := []float64{0, 0}
	if _, err := LBFGS(context.Background(), obj, x0, LBFGSParams{}); err != nil {
		t.Fatal(err)
	}
	if x0[0] != 0 || x0[1] != 0 {
		t.Errorf("x0 modified: %v", x0)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		GradientConverged:    "gradient converged",
		FunctionConverged:    "function converged",
		MaxIterationsReached: "max iterations reached",
		LineSearchFailed:     "line search failed",
		CallbackStopped:      "stopped by callback",
		Status(99):           "status(99)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q want %q", int(s), s.String(), want)
		}
	}
}

func TestWolfeSearchConditions(t *testing.T) {
	// φ(α) on f(x) = (x-3)² from x=0 along d=+1: minimum at α=3.
	obj := quadratic([]float64{1}, []float64{3})
	lf := &lineFunc{obj: obj, x: []float64{0}, d: []float64{1},
		xt: make([]float64, 1), gt: make([]float64, 1)}
	phi0 := 9.0
	dphi0 := -6.0
	p := defaultWolfe()
	alpha, phi, ok := wolfeSearch(lf, phi0, dphi0, 1, p)
	if !ok {
		t.Fatal("search failed")
	}
	// Check both strong Wolfe conditions explicitly.
	if phi > phi0+p.c1*alpha*dphi0 {
		t.Errorf("sufficient decrease violated: φ(%v)=%v", alpha, phi)
	}
	_, dphiA := lf.eval(alpha)
	if math.Abs(dphiA) > -p.c2*dphi0 {
		t.Errorf("curvature violated: |φ'(%v)|=%v > %v", alpha, math.Abs(dphiA), -p.c2*dphi0)
	}
}

func TestWolfeSearchRejectsAscent(t *testing.T) {
	obj := quadratic([]float64{1}, []float64{0})
	lf := &lineFunc{obj: obj, x: []float64{1}, d: []float64{1},
		xt: make([]float64, 1), gt: make([]float64, 1)}
	if _, _, ok := wolfeSearch(lf, 1, +2, 1, defaultWolfe()); ok {
		t.Error("accepted ascent direction")
	}
}

// TestLBFGSCancellation: cancelling mid-run returns the last completed
// iterate with Status Canceled and error ctx.Err().
func TestLBFGSCancellation(t *testing.T) {
	obj := rosenbrock(4)
	ctx, cancel := context.WithCancel(context.Background())
	res, err := LBFGS(ctx, obj, []float64{5, 5, 5, 5}, LBFGSParams{
		MaxIterations: 100,
		Callback: func(info IterInfo) bool {
			if info.Iter == 2 {
				cancel()
			}
			return true
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Status != Canceled {
		t.Errorf("status = %v, want Canceled", res.Status)
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2 (cancelled after iteration 2)", res.Iterations)
	}

	// Pre-cancelled: no evaluation happens at all.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	evals := 0
	_, err = LBFGS(ctx2, funcObjective{N: 1, F: func(x, g []float64) float64 {
		evals++
		return 0
	}}, []float64{1}, LBFGSParams{})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Errorf("%d evaluations under a pre-cancelled context", evals)
	}
}
