package pca

import (
	"context"
	"math"
	"testing"

	"m3/internal/blas"
	"m3/internal/fit"
	"m3/internal/infimnist"
	"m3/internal/mat"
)

// anisotropic builds points stretched 10:1 along (1,1)/√2.
func anisotropic(n int) *mat.Dense {
	x := mat.NewDense(n, 2)
	r := uint64(55)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%2000)/1000 - 1
	}
	for i := 0; i < n; i++ {
		long := 10 * next()
		short := next()
		x.Set(i, 0, (long+short)/math.Sqrt2+3) // offset mean
		x.Set(i, 1, (long-short)/math.Sqrt2-1)
	}
	return x
}

func TestFitFindsDominantDirection(t *testing.T) {
	x := anisotropic(500)
	res, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First component aligns with (1,1)/√2 (sign-free).
	c0 := res.Components.RawRow(0)
	if got := math.Abs(c0[0]*c0[1]*2 - 1); got > 0.02 {
		t.Errorf("component 0 = %v, want ±(0.707,0.707)", c0)
	}
	// Eigenvalues descending and dominant.
	if !(res.Eigenvalues[0] > res.Eigenvalues[1]) {
		t.Errorf("eigenvalues not descending: %v", res.Eigenvalues)
	}
	if ratio := res.Eigenvalues[0] / res.Eigenvalues[1]; ratio < 20 {
		t.Errorf("anisotropy ratio = %v, want ≈100", ratio)
	}
	// Explained ratios sum to ~1 with 2 of 2 components.
	er := res.ExplainedRatio()
	if math.Abs(er[0]+er[1]-1) > 1e-6 {
		t.Errorf("explained ratios sum to %v", er[0]+er[1])
	}
	// Mean recovered.
	if math.Abs(res.Mean[0]-3) > 0.5 || math.Abs(res.Mean[1]+1) > 0.5 {
		t.Errorf("mean = %v", res.Mean)
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	g := infimnist.Generator{Seed: 2}
	xs, _ := g.Matrix(0, 150)
	x := mat.NewDenseFrom(xs, 150, infimnist.Features)
	res, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		ra := res.Components.RawRow(a)
		if n := blas.Nrm2(ra); math.Abs(n-1) > 1e-6 {
			t.Errorf("component %d norm = %v", a, n)
		}
		for b := a + 1; b < 5; b++ {
			if dot := blas.Dot(ra, res.Components.RawRow(b)); math.Abs(dot) > 1e-6 {
				t.Errorf("components %d,%d not orthogonal: %v", a, b, dot)
			}
		}
	}
	// Eigenvalues descending.
	for i := 1; i < 5; i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-9 {
			t.Errorf("eigenvalues out of order: %v", res.Eigenvalues)
		}
	}
}

func TestTransformReconstructRoundTrip(t *testing.T) {
	x := anisotropic(300)
	res, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Full-rank decomposition reconstructs exactly.
	row, _ := x.Row(7)
	coords := make([]float64, 2)
	back := make([]float64, 2)
	res.Transform(row, coords)
	res.Reconstruct(coords, back)
	for j := range row {
		if math.Abs(back[j]-row[j]) > 1e-6 {
			t.Errorf("reconstruction[%d] = %v want %v", j, back[j], row[j])
		}
	}
}

func TestCompressionQualityOnDigits(t *testing.T) {
	// 20 components of 784 should capture most digit variance.
	g := infimnist.Generator{Seed: 7}
	xs, _ := g.Matrix(0, 200)
	x := mat.NewDenseFrom(xs, 200, infimnist.Features)
	res, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var captured float64
	for _, r := range res.ExplainedRatio() {
		captured += r
	}
	if captured < 0.5 {
		t.Errorf("20/784 components capture only %.2f of variance", captured)
	}
	if captured > 1+1e-9 {
		t.Errorf("captured ratio %v exceeds 1", captured)
	}
}

func TestFitValidation(t *testing.T) {
	x := anisotropic(10)
	if _, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 0}); err == nil {
		t.Error("accepted 0 components")
	}
	if _, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 3}); err == nil {
		t.Error("accepted components > features")
	}
	one := mat.NewDense(1, 2)
	if _, err := FitOn(context.Background(), fit.NewLocal(one, nil, 0), Options{Components: 1}); err == nil {
		t.Error("accepted single row")
	}
}

func TestTransformPanicsOnShape(t *testing.T) {
	x := anisotropic(50)
	res, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.Transform([]float64{1}, make([]float64, 1))
}

func TestDeterministicInSeed(t *testing.T) {
	x := anisotropic(100)
	a, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitOn(context.Background(), fit.NewLocal(x, nil, 0), Options{Components: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		ra, rb := a.Components.RawRow(c), b.Components.RawRow(c)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("component %d differs across identical runs", c)
			}
		}
	}
}
