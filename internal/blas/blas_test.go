package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func almostEqual(a, b, eps float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	return d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func TestDot(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{1, 2, 3, 4, 5}, []float64{5, 4, 3, 2, 1}, 35},
		{[]float64{-1, 1, -1, 1}, []float64{1, 1, 1, 1}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.x, c.y); !almostEqual(got, c.want, tol) {
			t.Errorf("Dot(%v,%v)=%v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy got %v want %v", y, want)
		}
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{5, 6}
	Axpy(0, x, y)
	if y[0] != 5 || y[1] != 6 {
		t.Fatalf("Axpy(0,...) modified y: %v", y)
	}
}

func TestScal(t *testing.T) {
	x := []float64{1, -2, 4}
	Scal(-0.5, x)
	want := []float64{-0.5, 1, -2}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scal got %v want %v", x, want)
		}
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEqual(got, 5, tol) {
		t.Errorf("Nrm2(3,4)=%v want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Errorf("Nrm2(nil)=%v want 0", got)
	}
	// Overflow guard: components near MaxFloat64 must not overflow.
	big := math.MaxFloat64 / 2
	got := Nrm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Nrm2 overflowed: %v", got)
	}
	if want := big * math.Sqrt2; !almostEqual(got, want, 1e-10) {
		t.Errorf("Nrm2 big = %v want %v", got, want)
	}
}

func TestSumFill(t *testing.T) {
	x := make([]float64, 7)
	Fill(x, 1.5)
	if got := Sum(x); !almostEqual(got, 10.5, tol) {
		t.Errorf("Sum after Fill = %v want 10.5", got)
	}
}

func TestAddScaledAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 10, 10}
	AddScaled(x, x, 0.1, y) // x = x + 0.1*y
	want := []float64{2, 3, 4}
	for i := range want {
		if !almostEqual(x[i], want[i], tol) {
			t.Fatalf("AddScaled got %v want %v", x, want)
		}
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 25, tol) {
		t.Errorf("SqDist=%v want 25", got)
	}
	if got := SqDist([]float64{1, 1}, []float64{1, 1}); got != 0 {
		t.Errorf("SqDist identical = %v want 0", got)
	}
}

func TestGemv(t *testing.T) {
	// A = [1 2; 3 4; 5 6], x = [1, 1] → Ax = [3, 7, 11]
	a := []float64{1, 2, 3, 4, 5, 6}
	x := []float64{1, 1}
	y := make([]float64, 3)
	Gemv(3, 2, 1, a, 2, x, 0, y)
	want := []float64{3, 7, 11}
	for i := range want {
		if !almostEqual(y[i], want[i], tol) {
			t.Fatalf("Gemv got %v want %v", y, want)
		}
	}
	// beta accumulate: y = 2*A*x + 1*y → [9, 21, 33]
	Gemv(3, 2, 2, a, 2, x, 1, y)
	want = []float64{9, 21, 33}
	for i := range want {
		if !almostEqual(y[i], want[i], tol) {
			t.Fatalf("Gemv beta got %v want %v", y, want)
		}
	}
}

func naiveGemm(m, n, k int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {64, 64, 64}, {65, 63, 70}, {128, 5, 100}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c := make([]float64, m*n)
		Gemm(m, n, k, 1, a, k, b, n, 0, c, n)
		want := naiveGemm(m, n, k, a, b)
		for i := range want {
			if !almostEqual(c[i], want[i], 1e-9) {
				t.Fatalf("Gemm(%dx%dx%d) mismatch at %d: %v vs %v", m, n, k, i, c[i], want[i])
			}
		}
	}
}

func TestGemmBeta(t *testing.T) {
	a := []float64{1, 0, 0, 1} // I
	b := []float64{1, 2, 3, 4}
	c := []float64{10, 10, 10, 10}
	Gemm(2, 2, 2, 1, a, 2, b, 2, 0.5, c, 2)
	want := []float64{6, 7, 8, 9}
	for i := range want {
		if !almostEqual(c[i], want[i], tol) {
			t.Fatalf("Gemm beta got %v want %v", c, want)
		}
	}
}

func TestCheckMatrixPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short storage": func() { Gemv(3, 2, 1, []float64{1, 2, 3}, 2, []float64{1, 1}, 0, make([]float64, 3)) },
		"bad lda":       func() { Gemv(2, 3, 1, make([]float64, 6), 2, make([]float64, 3), 0, make([]float64, 2)) },
		"neg dim":       func() { Gemv(-1, 2, 1, nil, 2, nil, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotPropertySymmetry(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		x, y := raw[:half], raw[half:half*2]
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				raw[i] = 0
			}
		}
		return almostEqual(Dot(x, y), Dot(y, x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Nrm2(x)² ≈ Dot(x,x) for well-scaled inputs.
func TestNrm2PropertyDotConsistency(t *testing.T) {
	f := func(x []float64) bool {
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				x[i] = 0
			}
		}
		n := Nrm2(x)
		return almostEqual(n*n, Dot(x, x), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SqDist(x,y) == Nrm2(x-y)².
func TestSqDistPropertyNormConsistency(t *testing.T) {
	f := func(raw []float64) bool {
		half := len(raw) / 2
		x, y := raw[:half], raw[half:half*2]
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) || math.Abs(raw[i]) > 1e100 {
				raw[i] = 1
			}
		}
		d := make([]float64, half)
		AddScaled(d, x, -1, y)
		n := Nrm2(d)
		return almostEqual(SqDist(x, y), n*n, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSumRows(t *testing.T) {
	// 3x2 block with stride 3 (one padding column).
	a := []float64{1, 2, 99, 3, 4, 99, 5, 6, 99}
	y := []float64{10, 20}
	SumRows(3, 2, a, 3, y)
	if y[0] != 19 || y[1] != 32 {
		t.Errorf("SumRows = %v, want [19 32]", y)
	}
}

func TestSyrUpperTriangle(t *testing.T) {
	x := []float64{1, 2, 3}
	a := make([]float64, 9)
	Syr(3, 2, x, a, 3)
	want := []float64{2, 4, 6, 0, 8, 12, 0, 0, 18}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("Syr a = %v, want %v", a, want)
		}
	}
	// alpha == 0 is a no-op.
	Syr(3, 0, x, a, 3)
	if a[0] != 2 {
		t.Errorf("Syr alpha=0 modified a")
	}
}

func TestNearestRow(t *testing.T) {
	c := []float64{0, 0, 10, 10, 1, 1}
	best, dist := NearestRow([]float64{1.2, 0.9}, 3, 2, c, 2)
	if best != 2 {
		t.Errorf("NearestRow best = %d, want 2", best)
	}
	if !almostEqual(dist, 0.2*0.2+0.1*0.1, 1e-12) {
		t.Errorf("NearestRow dist = %v", dist)
	}
	// Ties resolve to the lowest index.
	tie := []float64{1, 0, 1, 0}
	if best, _ := NearestRow([]float64{0, 0}, 2, 2, tie, 2); best != 0 {
		t.Errorf("tie best = %d, want 0", best)
	}
}
