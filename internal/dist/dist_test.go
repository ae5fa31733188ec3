package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"m3/internal/core"
	"m3/internal/dataset"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
	"m3/internal/obs"
)

// writeTestData writes a deterministic labelled dataset file and
// returns its path.
func writeTestData(t *testing.T, n, d, classes int) string {
	t.Helper()
	path := t.TempDir() + "/data.m3"
	w, err := dataset.Create(path, int64(n), int64(d), true)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / float64(1<<53)
	}
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = next()*4 - 2
		}
		label := float64(i % classes)
		if err := w.WriteRow(row, label); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openLocal loads the dataset onto the heap for the reference fits.
func openLocal(t *testing.T, path string) (*mat.Dense, []float64) {
	t.Helper()
	eng := core.New(core.Config{Mode: core.InMemory, Workers: 2})
	t.Cleanup(func() { eng.Close() })
	tab, err := eng.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return tab.X, tab.Labels
}

// startCluster launches k in-process workers on ephemeral ports and
// returns a coordinator dialed to all of them.
func startCluster(t *testing.T, k int, cfg WorkerConfig) *Coordinator {
	t.Helper()
	return dial(t, startWorkers(t, k, cfg, nil))
}

// startWorkers launches k in-process workers on ephemeral ports, each
// serving wrap's view of its listener (nil: the listener itself), and
// returns their addresses.
func startWorkers(t *testing.T, k int, cfg WorkerConfig, wrap func(i int, ln net.Listener) net.Listener) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		if wrap != nil {
			ln = wrap(i, ln)
		}
		w := NewWorker(cfg)
		go w.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		})
	}
	return addrs
}

// dial returns a coordinator over the workers at addrs.
func dial(t *testing.T, addrs []string) *Coordinator {
	t.Helper()
	c, err := DialWorkers(context.Background(), addrs, Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// faultyListener injects a fault from inside a round: every connection
// it accepts after arm(n, fault) runs fault when the n-th request
// arrives on it and drops the connection instead of delivering that
// request to the worker. The request is never answered, so the fit
// cannot finish ahead of the fault however the scheduler treats the
// test's goroutines. Requests to a worker are numbered from 1: open,
// reset, then one per round (the first worker also gets stat, first).
type faultyListener struct {
	net.Listener
	mu    sync.Mutex
	n     int
	fault func()
}

func (l *faultyListener) arm(n int, fault func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n, l.fault = n, fault
}

func (l *faultyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return &faultyConn{Conn: c, n: l.n, fault: l.fault, answered: true}, nil
}

// faultyConn is used by one goroutine, the worker's connection
// handler, which reads a request and then writes its answer; a request
// begins at the first read after a write, or after the connection
// opened.
type faultyConn struct {
	net.Conn
	n        int
	fault    func()
	seen     int
	answered bool
}

func (c *faultyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.answered {
		c.answered = false
		if c.seen++; c.seen == c.n {
			c.fault()
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return n, err
}

func (c *faultyConn) Write(p []byte) (int, error) {
	c.answered = true
	return c.Conn.Write(p)
}

// openShards opens path across c's workers and returns the shards as a
// trainer's driver sees them.
func openShards(t *testing.T, c *Coordinator, path string) *shards {
	t.Helper()
	ds, err := c.Dataset(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Source(0).(*shards)
}

// fitLogistic opens path across c's workers and fits positive-vs-rest
// logistic regression on the shards.
func fitLogistic(ctx context.Context, c *Coordinator, path string, positive float64, opts logreg.Options) (*logreg.Model, error) {
	ds, err := c.Dataset(ctx, path)
	if err != nil {
		return nil, err
	}
	return logreg.TrainOn(ctx, ds.Source(0), true, positive, opts)
}

// eqFloats asserts bit-exact equality of two float slices.
func eqFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestPlanShardsAlignment(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {255, 4}, {256, 4}, {1000, 3}, {1100, 3}, {1 << 16, 7}, {300, 64},
	} {
		shards, err := PlanShards(tc.n, tc.k)
		if err != nil {
			t.Fatalf("PlanShards(%d, %d): %v", tc.n, tc.k, err)
		}
		gr := exec.GroupRows(tc.n)
		if len(shards) > tc.k {
			t.Fatalf("PlanShards(%d, %d): %d shards", tc.n, tc.k, len(shards))
		}
		prev := 0
		for i, s := range shards {
			if s.Lo != prev {
				t.Fatalf("shard %d starts at %d, want %d", i, s.Lo, prev)
			}
			if s.Lo%gr != 0 {
				t.Fatalf("shard %d start %d not group-aligned (gr=%d)", i, s.Lo, gr)
			}
			if s.Rows() <= 0 {
				t.Fatalf("shard %d empty: %+v", i, s)
			}
			prev = s.Hi
		}
		if prev != tc.n {
			t.Fatalf("shards cover [0, %d), want [0, %d)", prev, tc.n)
		}
	}
	if _, err := PlanShards(0, 2); err == nil {
		t.Fatal("PlanShards(0, 2) should fail")
	}
}

func TestLogisticParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	x, labels := openLocal(t, path)
	want, err := logreg.TrainOn(context.Background(), fit.NewLocal(x, labels, 0), true, 3, logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []core.Mode{core.InMemory, core.MemoryMapped} {
		t.Run(mode.String(), func(t *testing.T) {
			c := startCluster(t, 3, WorkerConfig{Mode: mode, Workers: 3})
			m, err := fitLogistic(context.Background(), c, path, 3, logreg.Options{MaxIterations: 8})
			if err != nil {
				t.Fatal(err)
			}
			eqFloats(t, "weights", m.Weights, want.Weights)
			if math.Float64bits(m.Intercept) != math.Float64bits(want.Intercept) {
				t.Fatalf("intercept %v, want %v", m.Intercept, want.Intercept)
			}
			if c.Shards() != 3 {
				t.Fatalf("active shards = %d, want 3", c.Shards())
			}
			if st := c.Stats(); st.Rounds == 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
				t.Fatalf("stats not accounted: %+v", st)
			}
		})
	}
}

func TestSoftmaxParity(t *testing.T) {
	path := writeTestData(t, 1100, 5, 4)
	x, labels := openLocal(t, path)
	want, err := logreg.TrainSoftmaxOn(context.Background(), fit.NewLocal(x, labels, 0), 4, logreg.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	m, err := logreg.TrainSoftmaxOn(context.Background(), openShards(t, c, path), 4, logreg.Options{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "weights", m.Weights, want.Weights)
	eqFloats(t, "bias", m.Bias, want.Bias)
}

func TestLinearParity(t *testing.T) {
	path := writeTestData(t, 1100, 4, 7)
	x, labels := openLocal(t, path)
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})

	t.Run("lbfgs", func(t *testing.T) {
		want, err := linreg.TrainOn(context.Background(), fit.NewLocal(x, labels, 0), linreg.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		m, err := linreg.TrainOn(context.Background(), openShards(t, c, path), linreg.Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		eqFloats(t, "weights", m.Weights, want.Weights)
		if math.Float64bits(m.Intercept) != math.Float64bits(want.Intercept) {
			t.Fatalf("intercept %v, want %v", m.Intercept, want.Intercept)
		}
	})
	t.Run("exact", func(t *testing.T) {
		want, err := linreg.TrainExactOn(context.Background(), fit.NewLocal(x, labels, 0), linreg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := linreg.TrainExactOn(context.Background(), openShards(t, c, path), linreg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eqFloats(t, "weights", m.Weights, want.Weights)
		if math.Float64bits(m.Intercept) != math.Float64bits(want.Intercept) {
			t.Fatalf("intercept %v, want %v", m.Intercept, want.Intercept)
		}
	})
}

func TestBayesParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 5)
	x, labels := openLocal(t, path)
	want, err := bayes.TrainOn(context.Background(), fit.NewLocal(x, labels, 0), 5, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 4, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
	m, err := bayes.TrainOn(context.Background(), openShards(t, c, path), 5, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "priors", m.LogPrior, want.LogPrior)
	eqFloats(t, "means", m.Mean, want.Mean)
	eqFloats(t, "variances", m.Var, want.Var)
}

func TestPCAParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 3)
	x, _ := openLocal(t, path)
	want, err := pca.FitOn(context.Background(), fit.NewLocal(x, nil, 0), pca.Options{Components: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	r, err := pca.FitOn(context.Background(), openShards(t, c, path), pca.Options{Components: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "mean", r.Mean, want.Mean)
	eqFloats(t, "eigenvalues", r.Eigenvalues, want.Eigenvalues)
	for i := 0; i < 3; i++ {
		eqFloats(t, fmt.Sprintf("component %d", i), r.Components.RawRow(i), want.Components.RawRow(i))
	}
}

func TestKMeansParity(t *testing.T) {
	path := writeTestData(t, 1100, 5, 3)
	x, _ := openLocal(t, path)
	for _, tc := range []struct {
		name string
		opts kmeans.Options
	}{
		{name: "kmeanspp", opts: kmeans.Options{K: 4, MaxIterations: 10, Seed: 7}},
		{name: "random-init", opts: kmeans.Options{K: 3, MaxIterations: 10, Seed: 3, RandomInit: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := kmeans.Run(context.Background(), x, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			c := startCluster(t, 3, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
			r, err := kmeans.RunOn(context.Background(), openShards(t, c, path), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(r.Inertia) != math.Float64bits(want.Inertia) {
				t.Fatalf("inertia %v, want %v", r.Inertia, want.Inertia)
			}
			if r.Iterations != want.Iterations || r.Converged != want.Converged {
				t.Fatalf("iters/converged = %d/%v, want %d/%v", r.Iterations, r.Converged, want.Iterations, want.Converged)
			}
			k, _ := r.Centroids.Dims()
			for i := 0; i < k; i++ {
				eqFloats(t, fmt.Sprintf("centroid %d", i), r.Centroids.RawRow(i), want.Centroids.RawRow(i))
			}
			if len(r.Assignments) != len(want.Assignments) {
				t.Fatalf("%d assignments, want %d", len(r.Assignments), len(want.Assignments))
			}
			for i := range r.Assignments {
				if r.Assignments[i] != want.Assignments[i] {
					t.Fatalf("assignment[%d] = %d, want %d", i, r.Assignments[i], want.Assignments[i])
				}
			}
		})
	}
}

// TestScalerPipelineParity checks the streaming pipeline path: a
// standard scaler fitted distributively, pushed as a fused stage, and
// a naive Bayes final trained off the fused shard views — against the
// identical local fused composition.
func TestScalerPipelineParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 4)
	x, labels := openLocal(t, path)
	scaler, err := preprocess.FitStandardOn(context.Background(), fit.NewLocal(x, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	fused := mat.NewFused(x, x.Cols(), scaler.BlockKernel)
	want, err := bayes.TrainOn(context.Background(), fit.NewLocal(fused, labels, 0), 4, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	src := openShards(t, c, path)
	sc, err := preprocess.FitStandardOn(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "scaler mean", sc.Mean, scaler.Mean)
	eqFloats(t, "scaler std", sc.Std, scaler.Std)
	if err := src.Fuse(ctx, sc); err != nil {
		t.Fatal(err)
	}
	final, err := bayes.TrainOn(ctx, src, 4, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "priors", final.LogPrior, want.LogPrior)
	eqFloats(t, "means", final.Mean, want.Mean)
	eqFloats(t, "variances", final.Var, want.Var)
}

// TestMaterializedPipelineParity checks the multi-epoch pipeline path:
// a shard-local materialize before a logistic final, so every
// optimizer pass reads a cached shard instead of re-running the fused
// transform — and the result must still match the local fused
// composition.
func TestMaterializedPipelineParity(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	x, labels := openLocal(t, path)
	scaler, err := preprocess.FitStandardOn(context.Background(), fit.NewLocal(x, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	fused := mat.NewFused(x, x.Cols(), scaler.BlockKernel)
	want, err := logreg.TrainOn(context.Background(), fit.NewLocal(fused, labels, 0), true, 2, logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	c := startCluster(t, 3, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
	src := openShards(t, c, path)
	sc, err := preprocess.FitStandardOn(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fuse(ctx, sc); err != nil {
		t.Fatal(err)
	}
	if err := src.Materialize(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := logreg.TrainOn(ctx, src, true, 2, logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	eqFloats(t, "weights", m.Weights, want.Weights)
	if math.Float64bits(m.Intercept) != math.Float64bits(want.Intercept) {
		t.Fatalf("intercept %v, want %v", m.Intercept, want.Intercept)
	}
}

// TestWorkerDiesMidFit kills one worker's connections mid-optimization
// and checks the coordinator surfaces a clean, attributed error
// instead of hanging.
func TestWorkerDiesMidFit(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	// Worker 1 drops its connection on the fifth request it is sent —
	// the third round of the optimization — without answering it.
	dying := &faultyListener{}
	dying.arm(5, func() {})
	addrs := startWorkers(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2},
		func(i int, ln net.Listener) net.Listener {
			if i != 1 {
				return ln
			}
			dying.Listener = ln
			return dying
		})
	c := dial(t, addrs)
	_, err := fitLogistic(context.Background(), c, path, 3, logreg.Options{MaxIterations: 100000, GradTol: 1e-300})
	if err == nil {
		t.Fatal("fit succeeded despite a dead worker")
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("error does not name the dead worker %s: %v", addrs[1], err)
	}
}

// TestCancelMidFit cancels the coordinator's context mid-round and
// checks the fit unwinds promptly with ctx.Err().
func TestCancelMidFit(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The sixth request to worker 0 (after stat, open and reset) is the
	// third round of the optimization; it cancels instead of answering.
	canceling := &faultyListener{}
	canceling.arm(6, cancel)
	c := dial(t, startWorkers(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2},
		func(i int, ln net.Listener) net.Listener {
			if i != 0 {
				return ln
			}
			canceling.Listener = ln
			return canceling
		}))
	start := time.Now()
	_, err := fitLogistic(ctx, c, path, 3, logreg.Options{MaxIterations: 100000, GradTol: 1e-300})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
}

// TestCancelAtEveryRequest cancels a 3-shard fit at each request the
// first worker is sent in turn — stat, open, reset, every round — and
// closes the coordinator at once. The cancellation hook of a call must
// be over by the time the call returns: a late one used to find the
// connection gone (a nil dereference in a goroutine nobody recovers)
// or to poke its 1970 deadline into the next call. Then the same
// workers must serve a fresh coordinator a whole fit, bit for bit the
// undisturbed one.
func TestCancelAtEveryRequest(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	first := &faultyListener{}
	addrs := startWorkers(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2},
		func(i int, ln net.Listener) net.Listener {
			if i != 0 {
				return ln
			}
			first.Listener = ln
			return first
		})
	fitOnce := func(ctx context.Context) (*logreg.Model, error) {
		c, err := DialWorkers(context.Background(), addrs, Options{CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		model, err := fitLogistic(ctx, c, path, 3, logreg.Options{MaxIterations: 3})
		if cerr := c.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
		return model, err
	}
	want, err := fitOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		ctx, cancel := context.WithCancel(context.Background())
		first.arm(n, cancel)
		_, err := fitOnce(ctx)
		fired := ctx.Err() != nil
		cancel()
		if !fired {
			// The fit has fewer than n requests: every one was tried.
			if err != nil {
				t.Fatalf("undisturbed fit: %v", err)
			}
			if n < 6 {
				t.Fatalf("the fit made only %d requests; expected stat, open, reset and some rounds", n-1)
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at request %d: err = %v, want context.Canceled", n, err)
		}
		first.arm(0, nil)
		got, err := fitOnce(context.Background())
		if err != nil {
			t.Fatalf("fit after a cancellation at request %d: %v", n, err)
		}
		eqFloats(t, "weights", got.Weights, want.Weights)
	}
}

// TestMoreWorkersThanGroups: a tiny dataset must use fewer shards
// than workers, not fail.
func TestMoreWorkersThanGroups(t *testing.T) {
	path := writeTestData(t, 300, 4, 2) // 2 groups of 256
	x, labels := openLocal(t, path)
	want, err := logreg.TrainOn(context.Background(), fit.NewLocal(x, labels, 0), true, 1, logreg.Options{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, 4, WorkerConfig{Mode: core.InMemory, Workers: 1})
	got, err := fitLogistic(context.Background(), c, path, 1, logreg.Options{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", c.Shards())
	}
	eqFloats(t, "weights", got.Weights, want.Weights)
}

// colSums is the state of the test-only pass below: per-column sums
// plus a row count.
type colSums struct {
	Sums []float64
	Rows int
}

// colSumsPass and massPass are declared here and nowhere else: no line
// of worker.go, coord.go or wire.go knows them, so a round of either
// succeeding is the proof that the reduce op is generic. massPass's
// state is a bare scalar, which gob drops from the wire whenever it is
// zero.
var (
	colSumsPass = fit.Declare("test/colsums", func(sh *fit.Shard, _ struct{}) (exec.Aggregate[*colSums], error) {
		d := sh.Cols
		return exec.Aggregate[*colSums]{
			Name:  "test colsums",
			Alloc: func() *colSums { return &colSums{Sums: make([]float64, d)} },
			Block: exec.EachRow(d, func(st *colSums, _ int, row []float64) {
				st.Rows++
				for j, v := range row {
					st.Sums[j] += v
				}
			}),
			Merge: func(dst, src *colSums) {
				dst.Rows += src.Rows
				for j, v := range src.Sums {
					dst.Sums[j] += v
				}
			},
		}, nil
	})
	massPass = fit.Declare("test/mass", func(sh *fit.Shard, scale float64) (exec.Aggregate[*float64], error) {
		return exec.Aggregate[*float64]{
			Name:  "test mass",
			Alloc: func() *float64 { return new(float64) },
			Block: exec.EachRow(sh.Cols, func(m *float64, _ int, row []float64) { *m += scale * row[0] }),
			Merge: func(dst, src *float64) { *dst += *src },
		}, nil
	})
)

// TestGenericReduce drives the one reduce op with passes the package
// has never heard of, over 1, 2 and 5 shards — including more workers
// than merge groups, and a shard of all-zero rows, whose scalar group
// states gob omits from the reply — and checks the merged root against
// exec.ReduceRowBlocks over the whole matrix, bit for bit.
func TestGenericReduce(t *testing.T) {
	for _, tc := range []struct{ rows, workers, wantShards int }{
		{1400, 1, 1}, {1400, 2, 2}, {1400, 5, 5}, {300, 5, 2},
	} {
		t.Run(fmt.Sprintf("%drows-%dworkers", tc.rows, tc.workers), func(t *testing.T) {
			const d = 5
			// Mixed magnitudes make any change of association change
			// the bits; rows [512, 768) — the whole of shard 1 of 5 —
			// are zero.
			path := t.TempDir() + "/data.m3"
			w, err := dataset.Create(path, int64(tc.rows), d, false)
			if err != nil {
				t.Fatal(err)
			}
			rng := uint64(0x9e3779b97f4a7c15)
			row := make([]float64, d)
			for i := 0; i < tc.rows; i++ {
				for j := range row {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					row[j] = (float64(rng%2000)/1000 - 1) * []float64{1e-8, 1, 1e8}[rng%3]
					if i >= 512 && i < 768 {
						row[j] = 0
					}
				}
				if err := w.WriteRow(row, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			x, _ := openLocal(t, path)
			local := fit.NewLocal(x, nil, 2)

			ctx := context.Background()
			c := startCluster(t, tc.workers, WorkerConfig{Mode: core.MemoryMapped, Workers: 2})
			src := openShards(t, c, path)
			if c.Shards() != tc.wantShards {
				t.Fatalf("shards = %d, want %d", c.Shards(), tc.wantShards)
			}

			sums, err := colSumsPass.New(local.Shard(), struct{}{})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := exec.ReduceRowBlocks(x.Scan(2), sums.Alloc, sums.Block, sums.Merge)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := fit.Reduce(ctx, src, colSumsPass, struct{}{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != tc.rows || got.Rows != want.Rows {
				t.Fatalf("rows = %d (local %d), want %d", got.Rows, want.Rows, tc.rows)
			}
			eqFloats(t, "column sums", got.Sums, want.Sums)

			mass, err := massPass.New(local.Shard(), 3)
			if err != nil {
				t.Fatal(err)
			}
			wantMass, _, err := exec.ReduceRowBlocks(x.Scan(2), mass.Alloc, mass.Block, mass.Merge)
			if err != nil {
				t.Fatal(err)
			}
			gotMass, _, err := fit.Reduce(ctx, src, massPass, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			eqFloats(t, "mass", []float64{*gotMass}, []float64{*wantMass})

			if _, _, err := fit.Reduce(ctx, src, fit.Pass[struct{}, *colSums]{Name: "test/undeclared", New: colSumsPass.New}, struct{}{}); err == nil || !strings.Contains(err.Error(), "unknown pass") {
				t.Fatalf("undeclared pass: err = %v, want unknown-pass error", err)
			}
		})
	}
}

// TestRoundMetricsKeepPassNames pins the op label values of the
// cluster series: one per data pass, though the wire op is one.
func TestRoundMetricsKeepPassNames(t *testing.T) {
	path := writeTestData(t, 1100, 6, 10)
	c := startCluster(t, 3, WorkerConfig{Mode: core.InMemory, Workers: 2})
	before := obs.Default().Snapshot()
	if _, err := fitLogistic(context.Background(), c, path, 3, logreg.Options{MaxIterations: 4}); err != nil {
		t.Fatal(err)
	}
	delta := obs.Default().Snapshot().Sub(before)
	for series, want := range map[string][]string{
		"m3_dist_rounds_total":     {"logreg/grad", "open", "reset"},
		"m3_dist_worker_ops_total": {"logreg/grad", "open", "reset", "stat"},
	} {
		var got []string
		for key, v := range delta {
			if op, ok := strings.CutPrefix(key, series+`{op="`); ok && v > 0 {
				got = append(got, strings.TrimSuffix(op, `"}`))
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s op labels = %q, want %q", series, got, want)
		}
	}
}

// TestReadFrameTruncatedHeaderIsCheap: a header may claim the largest
// frame there is; if the bytes do not follow, the reader must not have
// paid for them.
func TestReadFrameTruncatedHeaderIsCheap(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req request
	n, err := readFrame(bytes.NewReader(hdr[:]), &req, new(bytes.Buffer))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 1 GiB frame with no body decoded without error")
	}
	if n != 8 {
		t.Errorf("consumed %d bytes, want the 8 of the lengths", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("reading a truncated frame allocated %d bytes, want < 1 MiB", grew)
	}

	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), &req, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("over-limit frame: err = %v, want the hard cap", err)
	}
}

// frameBytes returns hdr and body as one encoded frame.
func frameBytes(tb testing.TB, hdr any, body []byte) []byte {
	tb.Helper()
	var out bytes.Buffer
	if _, err := writeFrame(&out, new(bytes.Buffer), hdr, body); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestReadFrameLyingBodyIsCheap: a well-formed header whose body claims
// 1 GiB and then ends costs the reader what arrived, not what was
// claimed, and is an error; so is a body length over the cap.
func TestReadFrameLyingBodyIsCheap(t *testing.T) {
	frame := frameBytes(t, &response{Seq: 1}, nil)
	binary.BigEndian.PutUint32(frame[4:], maxFrameBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var resp response
	n, err := readFrame(bytes.NewReader(append(frame, 1, 2, 3)), &resp, new(bytes.Buffer))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a 1 GiB body claim followed by 3 bytes: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n != len(frame)+3 {
		t.Errorf("consumed %d bytes, want the %d that arrived", n, len(frame)+3)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("reading a lying body allocated %d bytes, want < 1 MiB", grew)
	}

	binary.BigEndian.PutUint32(frame[4:], maxFrameBytes+1)
	if _, err := readFrame(bytes.NewReader(frame), &resp, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("over-limit body: err = %v, want the hard cap", err)
	}
}

// TestErrorReplyHasNoBody: a worker's error reply is a header alone; a
// response frame that carries an error and a body is rejected, and the
// stream stays aligned on the frame after it.
func TestErrorReplyHasNoBody(t *testing.T) {
	stream := append(frameBytes(t, &response{Seq: 3, Err: "boom"}, []byte{1, 2, 3}),
		frameBytes(t, &response{Seq: 4}, []byte{4, 5})...)
	r := bytes.NewReader(stream)
	var resp response
	var body bytes.Buffer
	if _, err := readFrame(r, &resp, &body); err == nil || !strings.Contains(err.Error(), "error reply") {
		t.Fatalf("error reply with a body: err = %v, want it rejected", err)
	}
	resp = response{}
	if _, err := readFrame(r, &resp, &body); err != nil || resp.Seq != 4 || !bytes.Equal(body.Bytes(), []byte{4, 5}) {
		t.Fatalf("next frame: %+v body %v err %v, want seq 4 body [4 5]", resp, body.Bytes(), err)
	}
}

// FuzzReadFrame: no byte stream may panic the frame reader, make it
// consume more than it was given, or leave it misaligned — a second
// frame appended after a well-formed first must still decode. Read as
// a response, no stream yields an error reply that carries a body.
func FuzzReadFrame(f *testing.F) {
	good := frameBytes(f, &request{Seq: 7, Op: "reduce", Pass: "logreg/grad"}, []byte{1, 2, 3})
	lying := frameBytes(f, &request{Seq: 8, Op: "reduce", Pass: "kmeans/assign"}, nil)
	binary.BigEndian.PutUint32(lying[4:], 1<<30)
	f.Add(good)
	f.Add(good[:len(good)/2])                               // truncated header
	f.Add([]byte{0x40, 0, 0, 0, 0, 0, 0, 0, 0x05})          // claims a 1 GiB header, delivers a byte
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 0, 0xff, 0xff, 0xff}) // not gob
	f.Add(append(make([]byte, 8), good...))                 // empty frame first
	f.Add(append(good[:8:8], 0x7f, 0xff, 0xff, 1))          // right lengths, wrong bytes
	f.Add(good[:len(good)-2])                               // truncated body
	f.Add(append(lying, 1, 2, 3))                           // claims a 1 GiB body, delivers 3 bytes
	f.Add(frameBytes(f, &response{Seq: 7, Err: "boom"}, []byte{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp response
		var body bytes.Buffer
		if _, err := readFrame(bytes.NewReader(data), &resp, &body); err == nil && resp.Err != "" && body.Len() > 0 {
			t.Fatalf("an error reply %q carried a %d-byte body", resp.Err, body.Len())
		}

		r := bytes.NewReader(append(append([]byte(nil), data...), good...))
		var req request
		n, err := readFrame(r, &req, &body)
		if n < 0 || n > len(data)+len(good) {
			t.Fatalf("consumed %d of %d bytes", n, len(data)+len(good))
		}
		if consumed := len(data) + len(good) - r.Len(); consumed != n {
			t.Fatalf("reported %d bytes consumed, reader advanced %d", n, consumed)
		}
		if err != nil || n != len(data) {
			return
		}
		// data was exactly one well-formed frame: the next must follow.
		var next request
		if _, err := readFrame(r, &next, &body); err != nil {
			t.Fatalf("frame after a well-formed frame: %v", err)
		}
		if next.Seq != 7 || next.Pass != "logreg/grad" || !bytes.Equal(body.Bytes(), []byte{1, 2, 3}) {
			t.Fatalf("frame after a well-formed frame decoded as %+v, body %v", next, body.Bytes())
		}
		if _, err := readFrame(r, &next, &body); err != io.EOF {
			t.Fatalf("end of stream: err = %v, want io.EOF", err)
		}
	})
}
