package bayes

import (
	"context"
	"math"
	"testing"

	"m3/internal/fit"
	"m3/internal/infimnist"
	"m3/internal/mat"
)

func gaussBlobs(n int) (*mat.Dense, []int) {
	x := mat.NewDense(n, 2)
	y := make([]int, n)
	r := uint64(2024)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%1000)/1000 - 0.5
	}
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = c
		x.Set(i, 0, float64(c*6)+next())
		x.Set(i, 1, float64(c*-4)+next())
	}
	return x, y
}

// train fits over a local source of x with integer class labels.
func train(x *mat.Dense, y []int, classes int) (*Model, error) {
	labels := make([]float64, len(y))
	for i, v := range y {
		labels[i] = float64(v)
	}
	return TrainOn(context.Background(), fit.NewLocal(x, labels, 0), classes, Options{})
}

func TestTrainSeparatesBlobs(t *testing.T) {
	x, y := gaussBlobs(300)
	m, err := train(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.99 {
		t.Errorf("accuracy = %v", acc)
	}
	// Means recovered per class.
	for c := 0; c < 3; c++ {
		if math.Abs(m.Mean[c*2]-float64(c*6)) > 0.2 {
			t.Errorf("class %d mean[0] = %v want ~%d", c, m.Mean[c*2], c*6)
		}
	}
	// Priors are uniform thirds.
	for c := 0; c < 3; c++ {
		if math.Abs(math.Exp(m.LogPrior[c])-1.0/3) > 1e-9 {
			t.Errorf("prior[%d] = %v", c, math.Exp(m.LogPrior[c]))
		}
	}
}

func TestTrainValidation(t *testing.T) {
	x, y := gaussBlobs(9)
	if _, err := train(x, y[:5], 3); err == nil {
		t.Error("accepted label mismatch")
	}
	if _, err := train(x, y, 1); err == nil {
		t.Error("accepted 1 class")
	}
	if _, err := train(x, y, 5); err == nil {
		t.Error("accepted empty class")
	}
	bad := append([]int(nil), y...)
	bad[0] = 7
	if _, err := train(x, bad, 3); err == nil {
		t.Error("accepted out-of-range label")
	}
}

func TestDigitsOnePassAccuracy(t *testing.T) {
	g := infimnist.Generator{Seed: 15}
	const n = 400
	xs, labels := g.Matrix(0, n)
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]int, n)
	for i, v := range labels {
		y[i] = int(v)
	}
	m, err := train(x, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.85 {
		t.Errorf("digit train accuracy = %v", acc)
	}
	// Held out.
	xt, lt := g.Matrix(50000, 200)
	xm := mat.NewDenseFrom(xt, 200, infimnist.Features)
	yt := make([]int, 200)
	for i, v := range lt {
		yt[i] = int(v)
	}
	if acc := m.Accuracy(xm, yt); acc < 0.75 {
		t.Errorf("digit held-out accuracy = %v", acc)
	}
}

func TestZeroVarianceFeatureHandled(t *testing.T) {
	// A constant feature must not produce NaN scores.
	x := mat.NewDense(6, 2)
	y := []int{0, 1, 0, 1, 0, 1}
	for i := 0; i < 6; i++ {
		x.Set(i, 0, 1) // constant
		x.Set(i, 1, float64(i%2)*10)
	}
	m, err := train(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, 2)
	m.LogScores([]float64{1, 0}, scores)
	for c, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 1) {
			t.Errorf("score[%d] = %v", c, s)
		}
	}
	if m.Predict([]float64{1, 0}) != 0 {
		t.Error("misclassified obvious example")
	}
}

func TestLogScoresPanicsOnShape(t *testing.T) {
	x, y := gaussBlobs(30)
	m, err := train(x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.LogScores([]float64{1}, make([]float64, 3))
}
