package logreg

import (
	"context"
	"math"
	"testing"

	"m3/internal/infimnist"
	"m3/internal/mat"
)

func TestParallelObjectiveMatchesSerial(t *testing.T) {
	g := infimnist.Generator{Seed: 8}
	const n = 100
	xs, labels := g.Matrix(0, n)
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]float64, n)
	for i, v := range labels {
		if v == 0 {
			y[i] = 1
		}
	}

	params := make([]float64, infimnist.Features+1)
	for i := range params {
		params[i] = math.Sin(float64(i)) * 0.02
	}
	gs := make([]float64, len(params))
	fs := rowOrderObjective(x, y, 0.01, params, gs)

	for _, workers := range []int{1, 2, 4, 7} {
		par, err := NewParallelObjective(x, y, 0.01, true, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Workers() != workers {
			t.Errorf("workers = %d want %d", par.Workers(), workers)
		}
		gp := make([]float64, par.Dim())
		fp := par.Eval(params, gp)
		if math.Abs(fp-fs) > 1e-12*math.Max(1, math.Abs(fs)) {
			t.Errorf("workers=%d: loss %v vs serial %v", workers, fp, fs)
		}
		for i := range gs {
			if math.Abs(gp[i]-gs[i]) > 1e-10*math.Max(1, math.Abs(gs[i])) {
				t.Errorf("workers=%d: grad[%d] %v vs %v", workers, i, gp[i], gs[i])
				break
			}
		}
		if par.Scans != 1 {
			t.Errorf("workers=%d: scans = %d", workers, par.Scans)
		}
	}
}

// rowOrderObjective is the oracle: the regularized mean log-loss and
// its gradient at params = [w, b], summed one row at a time in row
// order with the textbook log(1+e^{-|z|}) + max(0, ±z) split.
func rowOrderObjective(x *mat.Dense, y []float64, lambda float64, params, grad []float64) float64 {
	n, d := x.Dims()
	w, b := params[:d], params[d]
	clear(grad)
	var loss float64
	for i := 0; i < n; i++ {
		row := x.RawRow(i)
		z := b
		for j, v := range row {
			z += v * w[j]
		}
		p := 1 / (1 + math.Exp(-z))
		loss += math.Max(0, -z) + math.Log1p(math.Exp(-math.Abs(z)))
		if y[i] == 0 {
			loss += z
		}
		for j, v := range row {
			grad[j] += (p - y[i]) * v
		}
		grad[d] += p - y[i]
	}
	var ww float64
	for j := range w {
		ww += w[j] * w[j]
		grad[j] = grad[j]/float64(n) + lambda*w[j]
	}
	grad[d] /= float64(n)
	return loss/float64(n) + 0.5*lambda*ww
}

func TestParallelObjectiveDeterministic(t *testing.T) {
	g := infimnist.Generator{Seed: 9}
	const n = 64
	xs, labels := g.Matrix(0, n)
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]float64, n)
	for i, v := range labels {
		if v == 1 {
			y[i] = 1
		}
	}
	par, err := NewParallelObjective(x, y, 0.01, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, par.Dim())
	g1 := make([]float64, par.Dim())
	g2 := make([]float64, par.Dim())
	f1 := par.Eval(params, g1)
	f2 := par.Eval(params, g2)
	if f1 != f2 {
		t.Errorf("repeated eval differs: %v vs %v", f1, f2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grad[%d] not deterministic", i)
		}
	}
}

func TestTrainParallelLearns(t *testing.T) {
	xh, y := twoBlobs(300)
	opts := Options{MaxIterations: 30}
	opts.FitOptions.Workers = 4
	m, err := Train(context.Background(), xh, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xh, y); acc < 0.99 {
		t.Errorf("parallel training accuracy = %v", acc)
	}
}

func TestParallelValidation(t *testing.T) {
	x := mat.NewDense(4, 2)
	if _, err := NewParallelObjective(x, []float64{0, 1}, 0.1, true, 2); err == nil {
		t.Error("accepted mismatched labels")
	}
	if _, err := NewParallelObjective(x, []float64{0, 1, 2, 0}, 0.1, true, 2); err == nil {
		t.Error("accepted label 2")
	}
	if _, err := NewParallelObjective(x, []float64{0, 1, 1, 0}, -1, true, 2); err == nil {
		t.Error("accepted negative lambda")
	}
	// The workers knob is kept as configured; the execution layer
	// clamps to the block count at scan time.
	obj, err := NewParallelObjective(x, []float64{0, 1, 1, 0}, 0, true, 100)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Workers() != 100 {
		t.Errorf("workers = %d want 100 (exec clamps at scan time)", obj.Workers())
	}
}

func TestSigmoidLossStableAtExtremes(t *testing.T) {
	for _, z := range []float64{-750, -50, 0, 50, 750} {
		for _, y := range []float64{0, 1} {
			p, l := sigmoidLoss(z, y)
			if math.IsNaN(p) || math.IsNaN(l) || math.IsInf(l, 0) && math.Abs(z) < 700 {
				t.Errorf("sigmoidLoss(%v,%v) = %v, %v", z, y, p, l)
			}
			if p < 0 || p > 1 {
				t.Errorf("prob out of range: sigmoidLoss(%v,%v) = %v", z, y, p)
			}
			if l < 0 {
				t.Errorf("negative loss: sigmoidLoss(%v,%v) = %v", z, y, l)
			}
		}
	}
}
