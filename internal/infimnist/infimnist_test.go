package infimnist

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"m3/internal/blas"
	"m3/internal/dataset"
)

func TestPrototypesHaveInk(t *testing.T) {
	for d := 0; d < Classes; d++ {
		img := prototype(d)
		if len(img) != Features {
			t.Fatalf("digit %d: %d features", d, len(img))
		}
		ink := blas.Sum(img)
		if ink < 20 {
			t.Errorf("digit %d has almost no ink (%v)", d, ink)
		}
		if ink > Features/2 {
			t.Errorf("digit %d is mostly ink (%v) — strokes too thick", d, ink)
		}
		for i, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("digit %d pixel %d = %v outside [0,1]", d, i, v)
			}
		}
	}
}

func TestPrototypesAreDistinct(t *testing.T) {
	// Pairwise distances between prototypes must be substantial;
	// otherwise classification is meaningless.
	protos := make([][]float64, Classes)
	for d := range protos {
		protos[d] = prototype(d)
	}
	for a := 0; a < Classes; a++ {
		for b := a + 1; b < Classes; b++ {
			if d2 := blas.SqDist(protos[a], protos[b]); d2 < 5 {
				t.Errorf("digits %d and %d nearly identical (sqdist %v)", a, b, d2)
			}
		}
	}
}

func TestPrototypePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	prototype(10)
}

func TestGeneratorDeterminism(t *testing.T) {
	g := Generator{Seed: 7}
	a, la := g.Image(12345)
	b, lb := g.Image(12345)
	if la != lb {
		t.Fatalf("labels differ: %d vs %d", la, lb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
	// Different index ⇒ different image (same class 12345 vs 12355).
	c, _ := g.Image(12355)
	if blas.SqDist(a, c) == 0 {
		t.Error("distinct indices produced identical images")
	}
	// Different seed ⇒ different image.
	g2 := Generator{Seed: 8}
	d, _ := g2.Image(12345)
	if blas.SqDist(a, d) == 0 {
		t.Error("distinct seeds produced identical images")
	}
}

func TestGeneratorLabelsBalanced(t *testing.T) {
	g := Generator{}
	counts := make([]int, Classes)
	for i := int64(0); i < 1000; i++ {
		counts[g.Label(i)]++
	}
	for d, c := range counts {
		if c != 100 {
			t.Errorf("class %d count = %d want 100", d, c)
		}
	}
}

func TestGeneratedStaysNearClass(t *testing.T) {
	// A deformed digit must stay closer to its own prototype than to
	// the average other prototype most of the time; this is the
	// separability k-means and logreg rely on.
	g := Generator{Seed: 3}
	protos := make([][]float64, Classes)
	for d := range protos {
		protos[d] = prototype(d)
	}
	good := 0
	const trials = 200
	for i := int64(0); i < trials; i++ {
		img, label := g.Image(i)
		own := blas.SqDist(img, protos[label])
		var others float64
		for d := 0; d < Classes; d++ {
			if d != label {
				others += blas.SqDist(img, protos[d])
			}
		}
		others /= Classes - 1
		if own < others {
			good++
		}
	}
	if good < trials*3/4 {
		t.Errorf("only %d/%d deformed digits closer to own prototype", good, trials)
	}
}

func TestFillPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generator{}.Fill(make([]float64, 10), 0)
}

func TestMatrix(t *testing.T) {
	g := Generator{Seed: 1}
	x, labels := g.Matrix(5, 20)
	if len(x) != 20*Features || len(labels) != 20 {
		t.Fatalf("matrix shape %d,%d", len(x), len(labels))
	}
	// Row i of the matrix equals Image(5+i).
	img, label := g.Image(5)
	if labels[0] != float64(label) {
		t.Errorf("label[0] = %v want %d", labels[0], label)
	}
	for j := range img {
		if x[j] != img[j] {
			t.Fatalf("matrix row 0 diverges at %d", j)
		}
	}
}

func TestWriteDatasetRoundTrip(t *testing.T) {
	g := Generator{Seed: 9}
	path := filepath.Join(t.TempDir(), "digits.m3")
	const n = 30
	if err := g.WriteDataset(path, n); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Rows != n || d.Cols != Features || !d.HasLabels {
		t.Fatalf("header %+v", d.Header)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	// File contents must match direct generation.
	img, label := g.Image(17)
	row := d.RawX()[17*Features : 18*Features]
	for j := range img {
		if row[j] != img[j] {
			t.Fatalf("stored row 17 diverges at pixel %d", j)
		}
	}
	if d.Labels()[17] != float64(label) {
		t.Errorf("stored label = %v want %d", d.Labels()[17], label)
	}
}

func TestImagesForBytes(t *testing.T) {
	if got := ImagesForBytes(190e9); got != int64(190e9)/6272 {
		t.Errorf("ImagesForBytes(190GB) = %d", got)
	}
	if got := ImagesForBytes(1); got != 1 {
		t.Errorf("ImagesForBytes(1) = %d want 1 (clamped)", got)
	}
	if BytesPerImage != 6272 {
		t.Errorf("BytesPerImage = %d want 6272 (paper)", BytesPerImage)
	}
}

// Property: every generated pixel lies in [0,1] and every image has
// some ink, for arbitrary indices and seeds.
func TestPropertyPixelRangeAndInk(t *testing.T) {
	f := func(seed uint64, idx int64) bool {
		if idx < 0 {
			idx = -idx
		}
		g := Generator{Seed: seed}
		img, label := g.Image(idx)
		if label != int(idx%Classes) {
			return false
		}
		for _, v := range img {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return blas.Sum(img) > 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- The renderer this package had before the culling grid, kept as
// the oracle: every pixel measures its distance to every segment of
// the digit, one divide and one square root each.

func distToSegment(p, a, b point) float64 {
	abx, aby := b.x-a.x, b.y-a.y
	apx, apy := p.x-a.x, p.y-a.y
	den := abx*abx + aby*aby
	t := 0.0
	if den > 0 {
		t = (apx*abx + apy*aby) / den
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx := p.x - (a.x + t*abx)
	dy := p.y - (a.y + t*aby)
	return math.Sqrt(dx*dx + dy*dy)
}

func oracleIntensityAt(d int, x, y float64) float64 {
	p := point{x, y}
	best := math.Inf(1)
	for _, s := range digitStrokes[d] {
		for i := 0; i+1 < len(s); i++ {
			if dist := distToSegment(p, s[i], s[i+1]); dist < best {
				best = dist
			}
		}
	}
	const feather = 0.035
	switch {
	case best <= strokeWidth:
		return 1
	case best >= strokeWidth+feather:
		return 0
	default:
		t := (best - strokeWidth) / feather
		return 1 - t*t*(3-2*t)
	}
}

func (g Generator) oracleFill(dst []float64, index int64) int {
	gg := g.withDefaults()
	label := gg.Label(index)

	r := rng{s: gg.Seed ^ (uint64(index)+1)*0xd1342543de82ef95}
	dx := r.symmetric(gg.MaxShift) / Side
	dy := r.symmetric(gg.MaxShift) / Side
	angle := r.symmetric(gg.MaxRotate)
	scale := math.Exp(r.symmetric(gg.MaxScale))
	sin, cos := math.Sincos(angle)

	for py := 0; py < Side; py++ {
		for px := 0; px < Side; px++ {
			x := (float64(px)+0.5)/Side - 0.5 - dx
			y := (float64(py)+0.5)/Side - 0.5 - dy
			sx := (cos*x+sin*y)/scale + 0.5
			sy := (-sin*x+cos*y)/scale + 0.5
			v := 0.0
			if sx >= 0 && sx < 1 && sy >= 0 && sy < 1 {
				v = oracleIntensityAt(label, sx, sy)
			}
			if gg.Noise > 0 {
				v += r.symmetric(gg.Noise)
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
			}
			dst[py*Side+px] = v
		}
	}
	return label
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFillMatchesOracle: culling and the deferred square root change
// no bit of any image.
func TestFillMatchesOracle(t *testing.T) {
	for _, g := range []Generator{{Seed: 0}, {Seed: 1}, {Seed: 7, MaxRotate: 0.6, MaxShift: 6, MaxScale: 0.4}, {Seed: 1 << 63, Noise: -1}} {
		t.Run(fmt.Sprint(g.Seed), func(t *testing.T) {
			t.Parallel()
			got, want := make([]float64, Features), make([]float64, Features)
			for i := int64(0); i < 10000; i++ {
				index := i
				if i%2 == 1 {
					index = i * (math.MaxInt64 / 10000) // far into the stream too
				}
				if lg, lw := g.Fill(got, index), g.oracleFill(want, index); lg != lw {
					t.Fatalf("image %d: label %d, oracle %d", index, lg, lw)
				}
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("image %d pixel %d = %v, oracle %v", index, j, got[j], want[j])
				}
			}
		})
	}
}

// TestIntensityMatchesOracleOnLattice is the cull's proof obligation:
// over a 1024×1024 lattice of the unit square that includes every
// grid-cell edge k/64 and its two float neighbours, no culled segment
// changes the intensity.
func TestIntensityMatchesOracleOnLattice(t *testing.T) {
	var coords []float64
	for k := 0; k < 1024; k++ {
		coords = append(coords, float64(k)/1024)
	}
	for k := 0; k <= gridSide; k++ {
		edge := float64(k) / gridSide
		for _, c := range []float64{math.Nextafter(edge, -1), math.Nextafter(edge, 2)} {
			if c >= 0 && c < 1 {
				coords = append(coords, c)
			}
		}
	}
	for d := 0; d < Classes; d++ {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			t.Parallel()
			g := &digits()[d]
			for _, y := range coords {
				for _, x := range coords {
					got, want := g.intensityAt(x, y), oracleIntensityAt(d, x, y)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("digit %d at (%v, %v): %v, oracle %v", d, x, y, got, want)
					}
				}
			}
		})
	}
}

// TestCullingGridCulls guards the speed-up itself: most cells list far
// fewer segments than the digit has, and blank cells list none.
func TestCullingGridCulls(t *testing.T) {
	for d := range digits() {
		g := &digits()[d]
		if mean := float64(len(g.near)) / (gridSide * gridSide); mean > float64(len(g.segs))/4 {
			t.Errorf("digit %d: %.1f of %d segments per cell on average", d, mean, len(g.segs))
		}
		if len(g.near) > math.MaxUint16 || len(g.segs) > math.MaxUint8 {
			t.Errorf("digit %d: %d list entries over %d segments overflow the index types", d, len(g.near), len(g.segs))
		}
		if g.start[1] != 0 {
			t.Errorf("digit %d: the corner cell lists %d segments", d, g.start[1])
		}
	}
}

func sha(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestGeneratedFilesPinned: SHA-256 of whole files, computed at the
// commit before the culling grid, the parallel renderer and the block
// writer (m3.GenerateInfimnist is Generator{Seed}.WriteDataset). 193
// and 65 are not multiples of blockRows.
func TestGeneratedFilesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Elsewhere the compiler may fuse x*y+z, which rounds once.
		t.Skip("hashes were computed on amd64")
	}
	for _, c := range []struct {
		n    int64
		seed uint64
		want string
	}{
		{1, 3, "a94025f59563a289bac2f3688b105bdbb265e9956cffb5e2e8c14291524a5ba7"},
		{300, 3, "7c8bb936e7851dff3090d6fde68de410cc24cbb8c7b9189c120b9b6ec7679f51"},
		{1000, 1, "e14f96ec6f5231454baaa66fd074e0804dafd767cb62f1e2a723225a08a3ae45"},
		{193, 9, "e2cd8d625d21e5d00b97617b0c92d3fa8d053f498b845b71e0e015e804d18b4a"},
		{64, 0, "71f5127f3e4c608aaf4363857f78f83cde7f5a42b5481d3b72b8c4676a5b4a31"},
		{65, 7, "d54956046b2bbae432ebe31c2004e3e3cb7aba09f1e4b4d3bc33508834d7d520"},
	} {
		path := filepath.Join(t.TempDir(), "pinned.m3")
		if err := (Generator{Seed: c.seed}).WriteDataset(path, c.n); err != nil {
			t.Fatal(err)
		}
		if got := sha(t, path); got != c.want {
			t.Errorf("n=%d seed=%d: sha256 %s, pinned %s", c.n, c.seed, got, c.want)
		}
	}
}

// TestWriteDatasetIgnoresWorkerCount: the file is a function of
// (Seed, n) — under any GOMAXPROCS, any worker count, n below the
// worker count and n = 1.
func TestWriteDatasetIgnoresWorkerCount(t *testing.T) {
	g := Generator{Seed: 5}
	dir := t.TempDir()
	for _, n := range []int64{1, 3, blockRows, 5*blockRows + 17} {
		// The sequential stream, through the row-at-a-time writer.
		want := filepath.Join(dir, "want.m3")
		w, err := dataset.Create(want, n, Features, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			img, label := g.Image(i)
			if err := w.WriteRow(img, float64(label)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wantSum := sha(t, want)

		got := filepath.Join(dir, "got.m3")
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			err := g.WriteDataset(got, n)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha(t, got); sum != wantSum {
				t.Errorf("n=%d GOMAXPROCS=%d: file differs from the sequential stream", n, procs)
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			w, err := dataset.Create(got, n, Features, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.writeTo(w, n, workers); err != nil {
				t.Fatal(err)
			}
			if sum := sha(t, got); sum != wantSum {
				t.Errorf("n=%d workers=%d: file differs from the sequential stream", n, workers)
			}
		}
	}
}

// TestMatrixIsFillRowByRow for a first index that is not 0 and a row
// count that is not whole blocks.
func TestMatrixIsFillRowByRow(t *testing.T) {
	g := Generator{Seed: 11}
	const first, n = 1_000_003, 2*blockRows + 9
	x, labels := g.Matrix(first, n)
	row := make([]float64, Features)
	for i := int64(0); i < n; i++ {
		if label := g.Fill(row, first+i); labels[i] != float64(label) {
			t.Fatalf("row %d: label %v, Fill says %d", i, labels[i], label)
		}
		if j := sameBits(x[i*Features:(i+1)*Features], row); j >= 0 {
			t.Fatalf("row %d diverges from Fill at pixel %d", i, j)
		}
	}
}

// settled waits for the goroutine count to come back down to base.
func settled(base int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= base {
			return true
		}
	}
	return false
}

// TestFailedWriteLeavesNothing: whichever block the writer refuses,
// the error comes back, every render goroutine has exited and the
// partial file is gone.
func TestFailedWriteLeavesNothing(t *testing.T) {
	g := Generator{Seed: 2}
	const n = 6*blockRows + 5
	for name, shape := range map[string]struct{ rows, cols int64 }{
		"rows of the wrong width":       {n, Features - 1},
		"more rows than declared":       {n - 2*blockRows - 1, Features},
		"one row fewer than declared":   {n + 1, Features},
		"refused from the first block":  {blockRows - 1, Features},
		"declared far beyond the count": {10 * n, Features},
	} {
		for _, workers := range []int{1, 2, 8} {
			path := filepath.Join(t.TempDir(), "partial.m3")
			base := runtime.NumGoroutine()
			w, err := dataset.Create(path, shape.rows, shape.cols, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.writeTo(w, n, workers); err == nil {
				t.Errorf("%s, %d workers: no error", name, workers)
			}
			if !settled(base) {
				t.Errorf("%s, %d workers: %d goroutines, %d before the call", name, workers, runtime.NumGoroutine(), base)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s, %d workers: partial file left behind (stat: %v)", name, workers, err)
			}
		}
	}
	// A path Create could not make is not this call's to remove.
	dir := t.TempDir()
	if err := g.WriteDataset(dir, 3); err == nil {
		t.Error("wrote a dataset over a directory")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("a failed Create removed the path: %v", err)
	}
}

var sink int

func BenchmarkFill(b *testing.B) {
	g := Generator{Seed: 1}
	dst := make([]float64, Features)
	b.SetBytes(BytesPerImage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += g.Fill(dst, int64(i))
	}
}

func BenchmarkWriteDataset(b *testing.B) {
	g := Generator{Seed: 1}
	path := filepath.Join(b.TempDir(), "bench.m3")
	const n = 2048
	b.SetBytes(dataset.Header{Rows: n, Cols: Features, HasLabels: true}.FileSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteDataset(path, n); err != nil {
			b.Fatal(err)
		}
	}
}

// prototype renders the undeformed digit d into a Features-length
// buffer (row-major, values in [0,1]). It panics for d outside 0–9.
func prototype(d int) []float64 {
	if d < 0 || d >= Classes {
		panic("infimnist: digit out of range")
	}
	img := make([]float64, Features)
	g := &digits()[d]
	for py := 0; py < Side; py++ {
		for px := 0; px < Side; px++ {
			x := (float64(px) + 0.5) / Side
			y := (float64(py) + 0.5) / Side
			img[py*Side+px] = g.intensityAt(x, y)
		}
	}
	return img
}
