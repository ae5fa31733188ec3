package kmeans

import (
	"context"
	"m3/internal/fit"
	"m3/internal/optimize"
	"math"
	"testing"

	"m3/internal/blas"
	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/vm"
)

// blobs builds n points around k well-separated 2-D centers.
func blobs(n, k int) (*mat.Dense, []int) {
	x := mat.NewDense(n, 2)
	truth := make([]int, n)
	r := uint64(777)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%1000)/1000 - 0.5
	}
	for i := 0; i < n; i++ {
		c := i % k
		truth[i] = c
		cx := float64(c%3) * 10
		cy := float64(c/3) * 10
		x.Set(i, 0, cx+next())
		x.Set(i, 1, cy+next())
	}
	return x, truth
}

func TestRunRecoversBlobs(t *testing.T) {
	const k = 4
	x, truth := blobs(400, k)
	res, err := Run(context.Background(), x, Options{K: k, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge in %d iterations", res.Iterations)
	}
	// Every true cluster must map to exactly one predicted cluster.
	mapping := make(map[int]int)
	for i, a := range res.Assignments {
		if prev, ok := mapping[truth[i]]; ok && prev != a {
			t.Fatalf("true cluster %d split across %d and %d", truth[i], prev, a)
		}
		mapping[truth[i]] = a
	}
	if len(mapping) != k {
		t.Errorf("found %d clusters, want %d", len(mapping), k)
	}
	// Inertia must be small: points are within ±0.5 of centers.
	if res.Inertia/400 > 1 {
		t.Errorf("mean inertia = %v", res.Inertia/400)
	}
}

func TestRunValidation(t *testing.T) {
	x, _ := blobs(10, 2)
	if _, err := Run(context.Background(), x, Options{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := Run(context.Background(), x, Options{K: 11}); err == nil {
		t.Error("accepted K > n")
	}
}

func TestRunK1(t *testing.T) {
	x, _ := blobs(50, 1)
	res, err := Run(context.Background(), x, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Single centroid must be the mean.
	var mx, my float64
	for i := 0; i < 50; i++ {
		mx += x.At(i, 0)
		my += x.At(i, 1)
	}
	mx /= 50
	my /= 50
	if math.Abs(res.Centroids.At(0, 0)-mx) > 1e-9 || math.Abs(res.Centroids.At(0, 1)-my) > 1e-9 {
		t.Errorf("centroid = (%v,%v), mean = (%v,%v)",
			res.Centroids.At(0, 0), res.Centroids.At(0, 1), mx, my)
	}
}

func TestDeterminism(t *testing.T) {
	x, _ := blobs(100, 3)
	a, err := Run(context.Background(), x, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), x, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia || a.Iterations != b.Iterations {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", a.Inertia, a.Iterations, b.Inertia, b.Iterations)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

func TestInertiaDecreasesMonotonically(t *testing.T) {
	x, _ := blobs(300, 5)
	prev := math.Inf(1)
	_, err := Run(context.Background(), x, Options{K: 5, Seed: 9, FitOptions: fit.FitOptions{
		Callback: func(info optimize.IterInfo) bool {
			if info.Value > prev+1e-9 {
				t.Errorf("iteration %d increased inertia %v -> %v", info.Iter, prev, info.Value)
			}
			prev = info.Value
			return true
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallbackStops(t *testing.T) {
	x, _ := blobs(100, 3)
	res, err := Run(context.Background(), x, Options{K: 3, Seed: 1, FitOptions: fit.FitOptions{
		Callback: func(info optimize.IterInfo) bool {
			return info.Iter < 2
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d want 2", res.Iterations)
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g := infimnist.Generator{Seed: 1}
	xs, _ := g.Matrix(0, 100)
	x := mat.NewDenseFrom(xs, 100, infimnist.Features)
	res, err := Run(context.Background(), x, Options{K: 5, MaxIterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestPlusPlusBeatsRandomInit(t *testing.T) {
	// On adversarial blob geometry, k-means++ should land at (or
	// below) the random-init inertia for most seeds.
	x, _ := blobs(200, 6)
	better := 0
	const trials = 10
	for s := uint64(0); s < trials; s++ {
		pp, err := Run(context.Background(), x, Options{K: 6, Seed: s, MaxIterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := Run(context.Background(), x, Options{K: 6, Seed: s, MaxIterations: 1, RandomInit: true})
		if err != nil {
			t.Fatal(err)
		}
		if pp.Inertia <= rnd.Inertia*1.01 {
			better++
		}
	}
	if better < trials/2 {
		t.Errorf("k-means++ no better than random in %d/%d trials", trials-better, trials)
	}
}

func TestPredictMatchesAssignments(t *testing.T) {
	x, _ := blobs(100, 3)
	res, err := Run(context.Background(), x, Options{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row, _ := x.Row(i)
		if got := res.Predict(row); got != res.Assignments[i] {
			t.Fatalf("Predict(row %d) = %d, assignment %d", i, got, res.Assignments[i])
		}
	}
}

func TestInertiaFunction(t *testing.T) {
	x, _ := blobs(100, 2)
	res, err := Run(context.Background(), x, Options{K: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := inertia(x, res.Centroids); math.Abs(got-res.Inertia) > 1e-6*math.Max(1, res.Inertia) {
		t.Errorf("Inertia = %v, result reports %v", got, res.Inertia)
	}
}

func TestEmptyClusterRepair(t *testing.T) {
	// Duplicate points + K near n forces empty clusters during
	// iterations; the run must still return K valid centroids.
	x := mat.NewDense(10, 2)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, float64(i/5)) // only two distinct locations
	}
	res, err := Run(context.Background(), x, Options{K: 4, Seed: 13, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	k, d := res.Centroids.Dims()
	if k != 4 || d != 2 {
		t.Fatalf("centroid dims %dx%d", k, d)
	}
	for c := 0; c < k; c++ {
		for _, v := range res.Centroids.RawRow(c) {
			if math.IsNaN(v) {
				t.Fatalf("centroid %d contains NaN", c)
			}
		}
	}
}

func TestPagedBackendSameClustering(t *testing.T) {
	// Transparency invariant for k-means: paged store produces the
	// same assignments as heap.
	xh, _ := blobs(80, 3)
	data := make([]float64, 160)
	for i := 0; i < 80; i++ {
		data[i*2] = xh.At(i, 0)
		data[i*2+1] = xh.At(i, 1)
	}
	ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
		PageSize:   128,
		CacheBytes: 256,
		Disk:       vm.DiskModel{BandwidthBytes: 1e6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := mat.NewDenseStore(ps, 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(context.Background(), xh, Options{K: 3, Seed: 6, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(context.Background(), xp, Options{K: 3, Seed: 6, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rh.Inertia != rp.Inertia {
		t.Errorf("inertia differs: %v vs %v", rh.Inertia, rp.Inertia)
	}
	for i := range rh.Assignments {
		if rh.Assignments[i] != rp.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if rp.Stall <= 0 {
		t.Error("paged run reported no stall")
	}
}

func TestClustersDigits(t *testing.T) {
	// 5 clusters over digits (the paper's Fig 1b configuration uses
	// k=5); just assert the run completes and inertia is finite and
	// decreasing relative to a 1-cluster baseline.
	g := infimnist.Generator{Seed: 30}
	xs, _ := g.Matrix(0, 200)
	x := mat.NewDenseFrom(xs, 200, infimnist.Features)
	k5, err := Run(context.Background(), x, Options{K: 5, Seed: 5, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := Run(context.Background(), x, Options{K: 1, Seed: 5, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !(k5.Inertia < k1.Inertia) {
		t.Errorf("k=5 inertia %v not below k=1 inertia %v", k5.Inertia, k1.Inertia)
	}
	if k5.Scans == 0 || blas.Sum(k5.Centroids.RawRow(0)) == 0 {
		t.Error("suspicious empty result")
	}
}

// inertia recomputes the clustering cost of x under centroids, the
// oracle for Result.Inertia.
func inertia(x *mat.Dense, centroids *mat.Dense) float64 {
	var total float64
	x.ForEachRow(func(i int, row []float64) {
		_, best := nearestCentroid(row, centroids)
		total += best
	})
	return total
}
