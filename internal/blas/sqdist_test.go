package blas

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// sqDistRef states the canonical reduction the plain way: eight lanes
// in an array, element i into lane i mod 8, a check after every full
// 128 elements. Every kernel must agree with it bit for bit.
func sqDistRef(x, y []float64, bound float64) float64 {
	var l [8]float64
	reduce := func() float64 { return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])) }
	for i := range x {
		d := x[i] - y[i]
		l[i%8] += float64(d * d)
		if (i+1)%sqDistCheck == 0 {
			if s := reduce(); s > bound {
				return s
			}
		}
	}
	return reduce()
}

// sqDistSerial is the single-accumulator loop SqDist used before the
// canonical reduction: the baseline for the speed guard and for the
// accuracy comparison.
func sqDistSerial(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// sameBits is bit equality, with every NaN equal to every other: which
// operand's payload survives an x86 add is not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sqDistKernel is one implementation under test.
type sqDistKernel struct {
	name string
	fn   func(x, y []float64, bound float64) float64
}

// sqDistKernels lists every implementation this build has; the amd64
// test file appends the assembly.
var sqDistKernels = []sqDistKernel{
	{"generic", sqDistGeneric},
	{"dispatch", sqDist},
}

// randVec fills n values in [-1, 1).
func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// checkKernels compares every kernel with the reference on one input,
// for the bounds that never abandon, always abandon, and abandon
// somewhere in the middle.
func checkKernels(t *testing.T, what string, x, y []float64) {
	t.Helper()
	full := sqDistRef(x, y, math.Inf(1))
	for _, bound := range []float64{math.Inf(1), math.NaN(), 0, full, full / 2, full / 16, math.Nextafter(full, 0)} {
		want := sqDistRef(x, y, bound)
		for _, k := range sqDistKernels {
			if got := k.fn(x, y, bound); !sameBits(got, want) {
				t.Fatalf("%s: %s(len %d, bound %v) = %v (%#x), reference %v (%#x)",
					what, k.name, len(x), bound, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestSqDistKernelsMatchReference: every length 0…1025 (all tail
// shapes, eight check boundaries) at every element offset 0…7, so the
// rows start at every alignment within 64 bytes.
func TestSqDistKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const maxLen = 1025
	xs, ys := randVec(r, maxLen+8), randVec(r, maxLen+8)
	for n := 0; n <= maxLen; n++ {
		for off := 0; off < 8; off++ {
			// Different offsets on the two sides: neither is aligned
			// with the other.
			yo := (off + 3) % 8
			checkKernels(t, "random", xs[off:off+n], ys[yo:yo+n])
		}
	}
}

// TestSqDistKernelsSpecialValues: infinities, NaNs, signed zeros and
// denormals planted at every lane and tail position.
func TestSqDistKernelsSpecialValues(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 0x1p-537,
		math.MaxFloat64, -math.MaxFloat64, 0x1p600,
	}
	for _, n := range []int{1, 7, 8, 15, 16, 17, 31, 127, 128, 129, 200, 263} {
		for _, sp := range specials {
			for pos := 0; pos < n; pos += 1 + n/24 {
				x, y := randVec(r, n), randVec(r, n)
				x[pos] = sp
				checkKernels(t, "special in x", x, y)
				y[pos] = sp
				checkKernels(t, "special in both", x, y)
				x[pos] = 0.5
				checkKernels(t, "special in y", x, y)
			}
		}
		// Denormal differences everywhere: sums stay denormal.
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i+1) * 0x1p-530
			y[i] = float64(i) * 0x1p-530
		}
		checkKernels(t, "denormal", x, y)
	}
}

// TestSqDistBoundedContract: a result <= bound is exactly SqDist; a
// result > bound means SqDist is past the bound too.
func TestSqDistBoundedContract(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(1100)
		x, y := randVec(r, n), randVec(r, n)
		full := SqDist(x, y)
		bounds := []float64{math.Inf(1), 0, math.NaN(), full, math.Nextafter(full, 0), math.Nextafter(full, math.Inf(1)), full * r.Float64(), -1}
		for _, bound := range bounds {
			got := SqDistBounded(x, y, bound)
			switch {
			case got <= bound:
				if !sameBits(got, full) {
					t.Fatalf("len %d bound %v: got %v <= bound but SqDist = %v", n, bound, got, full)
				}
			case got > bound:
				if !(full > bound) {
					t.Fatalf("len %d bound %v: got %v > bound but SqDist = %v is not", n, bound, got, full)
				}
			default: // NaN bound: nothing to abandon against
				if !sameBits(got, full) {
					t.Fatalf("len %d bound NaN: got %v, SqDist = %v", n, got, full)
				}
			}
		}
		if got := SqDistBounded(x, y, full); !sameBits(got, full) {
			t.Fatalf("len %d: bound == distance abandoned: %v vs %v", n, got, full)
		}
	}
}

func TestSqDistBoundedPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SqDistBounded([]float64{1}, []float64{1, 2}, 1)
}

// TestNearestRowMatchesUnboundedArgmin: NearestRow through the bounded
// kernel returns the index and the distance bits of a plain argmin over
// SqDist, with exact ties (duplicated rows) going to the lowest index.
func TestNearestRowMatchesUnboundedArgmin(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		k, n := 1+r.Intn(12), 1+r.Intn(400)
		ldc := n + r.Intn(3)
		c := randVec(r, k*ldc)
		// Duplicate some rows so the minimum is often tied.
		for i := 1; i < k; i++ {
			if r.Intn(3) == 0 {
				copy(c[i*ldc:i*ldc+n], c[r.Intn(i)*ldc:])
			}
		}
		x := randVec(r, n)
		if trial%4 == 0 { // query sits exactly on a (possibly duplicated) row
			copy(x, c[r.Intn(k)*ldc:])
		}
		wantI, wantD := 0, math.Inf(1)
		for i := 0; i < k; i++ {
			if d := SqDist(x, c[i*ldc:i*ldc+n]); d < wantD {
				wantI, wantD = i, d
			}
		}
		gotI, gotD := NearestRow(x, k, n, c, ldc)
		if gotI != wantI || !sameBits(gotD, wantD) {
			t.Fatalf("k=%d n=%d: NearestRow = (%d, %v), argmin = (%d, %v)", k, n, gotI, gotD, wantI, wantD)
		}
	}
	// Every distance NaN or +Inf: nothing is ever strictly nearer.
	if i, d := NearestRow([]float64{math.NaN(), 1}, 2, 2, []float64{0, 0, 1, 1}, 2); i != 0 || !math.IsInf(d, 1) {
		t.Errorf("all-NaN NearestRow = (%d, %v), want (0, +Inf)", i, d)
	}
}

// exactSqDist sums the squared differences of the float64 inputs in
// exact arithmetic (4096 bits hold every case below without rounding).
func exactSqDist(x, y []float64) *big.Float {
	const prec = 4096
	sum := new(big.Float).SetPrec(prec)
	d := new(big.Float).SetPrec(prec)
	for i := range x {
		d.Sub(new(big.Float).SetPrec(prec).SetFloat64(x[i]), new(big.Float).SetPrec(prec).SetFloat64(y[i]))
		sum.Add(sum, d.Mul(d, d))
	}
	return sum
}

// relErr is |got - exact| / exact.
func relErr(got float64, exact *big.Float) float64 {
	e := new(big.Float).Sub(new(big.Float).SetPrec(exact.Prec()).SetFloat64(got), exact)
	r, _ := e.Quo(e.Abs(e), exact).Float64()
	return r
}

// TestSqDistAgainstOracle pins the accuracy of the canonical reduction
// against exact arithmetic. Each term carries at most three roundings
// (difference, square, add) and passes through len/8 lane additions and
// three reduction levels, and every term is non-negative, so the
// relative error is at most about (len/8 + 6) ulps — an eighth of the
// serial loop's len + 2. The cases are the ones a Gram-form distance
// ‖x‖² − 2x·y + ‖y‖² loses: close large components, long vectors,
// mixed magnitudes.
func TestSqDistAgainstOracle(t *testing.T) {
	const u = 0x1p-53
	r := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		n    int
		gen  func(i int) (float64, float64)
	}{
		{"large close components", 784, func(int) (float64, float64) {
			x := 1e8 * (1 + r.Float64())
			return x, x + 1e-3*(2*r.Float64()-1)
		}},
		{"million elements", 1_000_000, func(int) (float64, float64) { return r.NormFloat64(), r.NormFloat64() }},
		{"mixed magnitudes", 100_000, func(i int) (float64, float64) {
			s := math.Ldexp(1, (i*37)%80-40)
			return s * r.NormFloat64(), s * r.NormFloat64()
		}},
		{"one dominant term", 4097, func(i int) (float64, float64) {
			if i == 2000 {
				return 1e12, -1e12
			}
			return r.Float64(), r.Float64()
		}},
	}
	for _, c := range cases {
		x, y := make([]float64, c.n), make([]float64, c.n)
		for i := range x {
			x[i], y[i] = c.gen(i)
		}
		exact := exactSqDist(x, y)
		got, serial := relErr(SqDist(x, y), exact), relErr(sqDistSerial(x, y), exact)
		limit := float64(c.n/8+6) * u
		t.Logf("%s: canonical %.3g, serial %.3g, limit %.3g (%.1f / %.1f ulp)", c.name, got, serial, limit, got/u, serial/u)
		if got > limit {
			t.Errorf("%s: relative error %.3g above the %.3g bound", c.name, got, limit)
		}
		// No worse than the loop it replaced, to within one rounding
		// of the result itself.
		if got > serial+u {
			t.Errorf("%s: relative error %.3g worse than the serial sum's %.3g", c.name, got, serial)
		}
	}
}

// TestSqDistDirectBeatsGramForm records why k-NN does not go through
// Gemm as ‖x‖² − 2x·y + ‖y‖²: on close large components the three
// terms are ~1e19 and cancel to ~1e-4, so the Gram form keeps no
// correct digit where the direct form is exact.
func TestSqDistDirectBeatsGramForm(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	x, y := make([]float64, 784), make([]float64, 784)
	for i := range x {
		x[i] = 1e8 * (1 + r.Float64())
		y[i] = x[i] + 1e-3*(2*r.Float64()-1)
	}
	exact := exactSqDist(x, y)
	direct := relErr(SqDist(x, y), exact)
	gram := relErr(Dot(x, x)-2*Dot(x, y)+Dot(y, y), exact)
	t.Logf("relative error: direct %.3g, Gram form %.3g", direct, gram)
	if direct > 0x1p-50 || gram < 1 {
		t.Errorf("direct %.3g (want <= 2^-50), Gram form %.3g (expected > 1)", direct, gram)
	}
}

// TestSqDistGenericNotSlowerThanSerial guards the hosts without the
// assembly: the eight-lane fallback must not lose to the one-chain
// loop it replaced (it should win by 2-4×). Timing, so not under
// -short (CI's race run).
func TestSqDistGenericNotSlowerThanSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	r := rand.New(rand.NewSource(6))
	x, y := randVec(r, 784), randVec(r, 784)
	best := func(f func() float64) time.Duration {
		min := time.Duration(math.MaxInt64)
		for trial := 0; trial < 15; trial++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				sinkF += f()
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	inf := math.Inf(1)
	generic := best(func() float64 { return sqDistGeneric(x, y, inf) })
	serial := best(func() float64 { return sqDistSerial(x, y) })
	t.Logf("784-wide pair: generic %v, serial %v per 2000", generic, serial)
	if generic > serial {
		t.Errorf("generic kernel (%v) slower than the serial loop (%v)", generic, serial)
	}
}

var sinkF float64

// benchCols is the benchmark's row width. The kernels are timed on
// cache-resident rows, as the layer table's blas.* rungs are, so the
// numbers are the arithmetic's own and not the memory's.
const benchCols = 784

func BenchmarkSqDist(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, y := randVec(r, benchCols), randVec(r, benchCols)
	for _, k := range append(sqDistKernels, sqDistKernel{"serial", func(x, y []float64, _ float64) float64 { return sqDistSerial(x, y) }}) {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(2 * 8 * benchCols)
			inf := math.Inf(1)
			for i := 0; i < b.N; i++ {
				sinkF += k.fn(x, y, inf)
			}
		})
	}
}

// BenchmarkSqDistBounded abandons at the first check, half way, and
// never (the bound is the distance).
func BenchmarkSqDistBounded(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	x, y := randVec(r, benchCols), randVec(r, benchCols)
	full := SqDist(x, y)
	for _, c := range []struct {
		name  string
		bound float64
	}{{"first-check", 0}, {"half", full / 2}, {"never", full}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(2 * 8 * benchCols)
			for i := 0; i < b.N; i++ {
				sinkF += SqDistBounded(x, y, c.bound)
			}
		})
	}
}

// BenchmarkNearestRow is the k-means assignment kernel at the
// benchmark's shape (5 centroids × 784).
func BenchmarkNearestRow(b *testing.B) {
	const k = 5
	r := rand.New(rand.NewSource(9))
	x, c := randVec(r, benchCols), randVec(r, k*benchCols)
	b.SetBytes(8 * benchCols) // the row; the centroids stay in L1/L2
	for i := 0; i < b.N; i++ {
		_, d := NearestRow(x, k, benchCols, c, benchCols)
		sinkF += d
	}
}
