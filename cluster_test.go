package m3

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"m3/internal/dist"
)

// startTestCluster launches k in-process workers and dials a Cluster.
func startTestCluster(t *testing.T, k int, cfg dist.WorkerConfig) *Cluster {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := dist.NewWorker(cfg)
		go w.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		})
	}
	cl, err := DialCluster(context.Background(), addrs, ClusterOptions{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClusterBitIdentical is the tentpole acceptance check through
// the public API: for every shardable estimator, a 3-shard cluster
// fit must match the local fit bit for bit — same predictions over
// the full dataset AND identical saved model bytes — with workers on
// both heap and mmap backends.
func TestClusterBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "digits.m3")
	const n = 1200
	if err := GenerateInfimnist(path, n, 21); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		est  Estimator
	}{
		{"logreg", LogisticRegression{Binarize: true, Positive: 3,
			Options: LogisticOptions{MaxIterations: 8}}},
		{"softmax", SoftmaxRegression{Classes: 10,
			Options: LogisticOptions{MaxIterations: 5}}},
		{"bayes", NaiveBayes{Classes: 10}},
		{"linreg-exact", LinearRegression{Exact: true}},
		{"kmeans", KMeansClustering{
			Options: KMeansOptions{K: 5, MaxIterations: 8, Seed: 9}}},
		{"pca", PrincipalComponents{
			Options: PCAOptions{Components: 16, Seed: 5}}},
		{"scaled-logreg-pipeline", Pipeline{
			Stages: []Transformer{StandardScaler{}},
			Estimator: LogisticRegression{Binarize: true, Positive: 3,
				Options: LogisticOptions{MaxIterations: 6}},
		}},
		{"scaled-bayes-pipeline", Pipeline{
			Stages:    []Transformer{StandardScaler{}},
			Estimator: NaiveBayes{Classes: 10},
		}},
		{"logreg-pointer", &LogisticRegression{Binarize: true, Positive: 3,
			Options: LogisticOptions{MaxIterations: 8}}},
		{"pointer-scaled-logreg-pipeline", Pipeline{
			Stages: []Transformer{&StandardScaler{}},
			Estimator: LogisticRegression{Binarize: true, Positive: 3,
				Options: LogisticOptions{MaxIterations: 6}},
		}},
	}

	for _, mode := range []Mode{InMemory, MemoryMapped} {
		t.Run(mode.String(), func(t *testing.T) {
			cl := startTestCluster(t, 3, dist.WorkerConfig{Mode: mode, Workers: 2})
			eng := New(Config{Mode: InMemory, Workers: 2})
			defer eng.Close()
			tbl, err := eng.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					local, err := eng.Fit(context.Background(), tc.est, tbl)
					if err != nil {
						t.Fatal(err)
					}
					remote, err := cl.Fit(context.Background(), tc.est, path)
					if err != nil {
						t.Fatal(err)
					}
					if cl.Shards() != 3 {
						t.Fatalf("shards = %d, want 3", cl.Shards())
					}
					requireSameModel(t, tbl, local, remote)
				})
			}
		})
	}
}

// requireSameModel fails t unless remote predicts every row of tbl as
// local does, bit for bit, and saves the same bytes.
func requireSameModel(t *testing.T, tbl *Table, local, remote Model) {
	t.Helper()
	wantPreds, err := local.PredictMatrix(tbl.X)
	if err != nil {
		t.Fatal(err)
	}
	gotPreds, err := remote.PredictMatrix(tbl.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPreds) != len(wantPreds) {
		t.Fatalf("%d predictions, want %d", len(gotPreds), len(wantPreds))
	}
	for i := range gotPreds {
		if math.Float64bits(gotPreds[i]) != math.Float64bits(wantPreds[i]) {
			t.Fatalf("prediction[%d] = %v, want %v", i, gotPreds[i], wantPreds[i])
		}
	}
	if lb, rb := savedBytes(t, local), savedBytes(t, remote); string(lb) != string(rb) {
		t.Fatalf("saved model bytes differ: local %d bytes, remote %d bytes", len(lb), len(rb))
	}
}

// TestClusterRejectsSequential: every root estimator, as a value and
// as a pointer, fits on a cluster bit-identically to a local fit, or
// is refused with an error that names the cause — never silently
// approximated, and never a panic on the nil matrix of remote rows.
func TestClusterRejectsSequential(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.m3")
	if err := GenerateInfimnist(path, 600, 3); err != nil {
		t.Fatal(err)
	}
	cl := startTestCluster(t, 3, dist.WorkerConfig{Mode: InMemory, Workers: 1})
	eng := New(Config{Mode: InMemory, Workers: 2})
	defer eng.Close()
	tbl, err := eng.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Fit(context.Background(), nil, path); err == nil {
		t.Fatal("a nil estimator fitted")
	}

	logistic := LogisticRegression{Binarize: true, Positive: 3, Options: LogisticOptions{MaxIterations: 4}}
	knn := KNNClassifier{K: 3, Classes: 10}
	sequential := "SGD is a sequential single-pass trainer"
	for _, tc := range []struct {
		name string
		est  Estimator
		// cause is what the refusal must say; "" means the fit must
		// match the local one.
		cause string
	}{
		{"logistic", logistic, ""},
		{"softmax", SoftmaxRegression{Classes: 10, Options: LogisticOptions{MaxIterations: 3}}, ""},
		{"linear-lbfgs", LinearRegression{Options: LinearOptions{MaxIterations: 3}}, ""},
		{"linear-exact", LinearRegression{Exact: true}, ""},
		{"kmeans", KMeansClustering{Options: KMeansOptions{K: 3, MaxIterations: 3, Seed: 1}}, ""},
		{"bayes", NaiveBayes{Classes: 10}, ""},
		{"pca", PrincipalComponents{Options: PCAOptions{Components: 4}}, ""},
		{"minibatch-kmeans", MiniBatchClustering{Options: MiniBatchKMeansOptions{K: 3}}, "each mini-batch update depends on the one before it"},
		{"knn", knn, "a k-NN model is its training matrix"},
		{"sgd", SGDClassifier{Binarize: true}, sequential},
		{"minmax-pca-softmax-pipeline", Pipeline{
			Stages:    []Transformer{MinMaxScaler{}, PrincipalComponents{Options: PCAOptions{Components: 4}}},
			Estimator: SoftmaxRegression{Classes: 10, Options: LogisticOptions{MaxIterations: 3}},
		}, ""},
		{"pipeline-ending-in-knn", Pipeline{Stages: []Transformer{MinMaxScaler{}}, Estimator: knn}, "KNNClassifier cannot terminate a pipeline"},
		{"pipeline-ending-in-sgd", Pipeline{Stages: []Transformer{StandardScaler{}}, Estimator: SGDClassifier{Binarize: true}}, sequential},
		{"nested-pipeline", Pipeline{Estimator: Pipeline{Stages: []Transformer{StandardScaler{}}, Estimator: logistic}}, ""},
		// The outer pipeline caches its fused view before the inner one
		// fits; a worker's cached view takes no further stage.
		{"nested-pipeline-after-a-stage", Pipeline{
			Stages:    []Transformer{MinMaxScaler{}},
			Estimator: Pipeline{Stages: []Transformer{StandardScaler{}}, Estimator: NaiveBayes{Classes: 10}},
		}, "stage after materialize"},
	} {
		ptr := reflect.New(reflect.TypeOf(tc.est))
		ptr.Elem().Set(reflect.ValueOf(tc.est))
		for _, form := range []struct {
			name string
			est  Estimator
		}{{"value", tc.est}, {"pointer", ptr.Interface().(Estimator)}} {
			t.Run(tc.name+"/"+form.name, func(t *testing.T) {
				remote, err := cl.Fit(context.Background(), form.est, path)
				if tc.cause != "" {
					if err == nil || !strings.Contains(err.Error(), tc.cause) {
						t.Fatalf("err = %v, want %q", err, tc.cause)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				local, err := eng.Fit(context.Background(), form.est, tbl)
				if err != nil {
					t.Fatal(err)
				}
				requireSameModel(t, tbl, local, remote)
			})
		}
	}
}

// TestClusterHonoursCallback: the iteration callback runs on a cluster
// fit as it does on a local one — as often, with the same early stop,
// to the same model.
func TestClusterHonoursCallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "digits.m3")
	if err := GenerateInfimnist(path, 1200, 21); err != nil {
		t.Fatal(err)
	}
	cl := startTestCluster(t, 3, dist.WorkerConfig{Mode: MemoryMapped, Workers: 2})
	eng := New(Config{Mode: InMemory, Workers: 2})
	defer eng.Close()
	tbl, err := eng.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		est        func(FitOptions) Estimator
		iterations func(Model) int
	}{
		{"logreg", func(o FitOptions) Estimator {
			return LogisticRegression{Binarize: true, Positive: 3, Options: LogisticOptions{FitOptions: o, MaxIterations: 20}}
		}, func(m Model) int { return m.(*FittedLogistic).Result.Iterations }},
		{"kmeans", func(o FitOptions) Estimator {
			return KMeansClustering{Options: KMeansOptions{FitOptions: o, K: 5, MaxIterations: 20, Seed: 9}}
		}, func(m Model) int { return m.(*FittedKMeans).Iterations }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// fitCounting fits with a callback that stops at iteration 2
			// and returns the model and the callback's call count.
			fitCounting := func(fit func(Estimator) (Model, error)) (Model, int) {
				calls := 0
				m, err := fit(tc.est(FitOptions{Callback: func(info IterInfo) bool {
					calls++
					return info.Iter < 2
				}}))
				if err != nil {
					t.Fatal(err)
				}
				return m, calls
			}
			local, localCalls := fitCounting(func(est Estimator) (Model, error) {
				return eng.Fit(context.Background(), est, tbl)
			})
			remote, remoteCalls := fitCounting(func(est Estimator) (Model, error) {
				return cl.Fit(context.Background(), est, path)
			})
			if localCalls != 2 || tc.iterations(local) != 2 {
				t.Fatalf("local fit: %d callback calls, %d iterations; want the callback to stop it at 2", localCalls, tc.iterations(local))
			}
			if remoteCalls != localCalls {
				t.Errorf("cluster fit made %d callback calls, local %d", remoteCalls, localCalls)
			}
			if got, want := tc.iterations(remote), tc.iterations(local); got != want {
				t.Errorf("cluster fit ran %d iterations, local %d", got, want)
			}
			if lb, rb := savedBytes(t, local), savedBytes(t, remote); string(lb) != string(rb) {
				t.Errorf("saved model bytes differ: local %d bytes, cluster %d bytes", len(lb), len(rb))
			}
		})
	}
}

// requestLog records, per worker, the label of every request frame the
// worker is sent: the pass of a reduce, the op otherwise.
type requestLog struct {
	mu     sync.Mutex
	labels [][]string
}

func (l *requestLog) add(worker int, label string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.labels[worker] = append(l.labels[worker], label)
}

// take returns each worker's labels, run-length encoded
// ("reset, logreg/grad ×3"), and starts the log afresh.
func (l *requestLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.labels))
	for w, labels := range l.labels {
		var runs []string
		for i := 0; i < len(labels); {
			j := i
			for j < len(labels) && labels[j] == labels[i] {
				j++
			}
			if j-i > 1 {
				runs = append(runs, fmt.Sprintf("%s ×%d", labels[i], j-i))
			} else {
				runs = append(runs, labels[i])
			}
			i = j
		}
		out[w] = strings.Join(runs, ", ")
		l.labels[w] = nil
	}
	return out
}

// recordingListener hands its worker connections that log each request
// frame read off them.
type recordingListener struct {
	net.Listener
	log    *requestLog
	worker int
}

func (l recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, log: l.log, worker: l.worker}, nil
}

// recordingConn decodes the request frames read through it: u32 header
// length, u32 body length (big-endian), the gob header, the body.
type recordingConn struct {
	net.Conn
	log    *requestLog
	worker int
	buf    []byte
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf = append(c.buf, p[:n]...)
	for len(c.buf) >= 8 {
		hn, bn := int(binary.BigEndian.Uint32(c.buf)), int(binary.BigEndian.Uint32(c.buf[4:]))
		if len(c.buf) < 8+hn+bn {
			break
		}
		var hdr struct {
			Seq      uint64
			Op, Pass string
		}
		label := "undecodable"
		if gob.NewDecoder(bytes.NewReader(c.buf[8:8+hn])).Decode(&hdr) == nil {
			label = hdr.Op
			if hdr.Pass != "" {
				label = hdr.Pass
			}
		}
		c.log.add(c.worker, label)
		c.buf = append(c.buf[:0], c.buf[8+hn+bn:]...)
	}
	return n, err
}

// TestClusterRequestSequencePinned pins, per worker, the requests a
// 3-shard fit sends: which ops, which passes, in which order. The
// benchmark cuts sharded fits at request arrivals and the fault tests
// index faults by request number, so the sequence is part of the
// contract. The literals were captured from the coordinator that
// flattened estimators into a wire spec before it fitted them.
func TestClusterRequestSequencePinned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "digits.m3")
	if err := GenerateInfimnist(path, 1200, 21); err != nil {
		t.Fatal(err)
	}
	const k = 3
	log := &requestLog{labels: make([][]string, k)}
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		w := dist.NewWorker(dist.WorkerConfig{Mode: InMemory, Workers: 1})
		go w.Serve(recordingListener{ln, log, i})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			w.Shutdown(ctx)
		})
	}
	cl, err := DialCluster(context.Background(), addrs, ClusterOptions{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	logistic := LogisticRegression{Binarize: true, Positive: 3, Options: LogisticOptions{MaxIterations: 4}}
	for _, tc := range []struct {
		name string
		est  Estimator
		want []string
	}{
		{"logreg", logistic, []string{
			"stat, open, reset, logreg/grad ×8",
			"open, reset, logreg/grad ×8",
			"open, reset, logreg/grad ×8",
		}},
		{"kmeans++", KMeansClustering{Options: KMeansOptions{K: 4, MaxIterations: 3, Seed: 9}}, []string{
			"stat, open, reset, row, kmeans/seed, kmeans/sample, kmeans/seed, kmeans/sample, row, kmeans/seed, kmeans/sample, row, kmeans/assign ×3, kmeans/gather",
			"open, reset, kmeans/seed, kmeans/sample, kmeans/seed ×2, kmeans/assign ×3, kmeans/gather",
			"open, reset, kmeans/seed, kmeans/sample, row, kmeans/seed ×2, kmeans/assign ×3, kmeans/gather",
		}},
		{"scaled-pca-logreg-pipeline", Pipeline{
			Stages:    []Transformer{StandardScaler{}, PrincipalComponents{Options: PCAOptions{Components: 8}}},
			Estimator: logistic,
		}, []string{
			"stat, open, reset, moments, stage, pca/mean, pca/cov, stage, materialize, logreg/grad ×7",
			"open, reset, moments, stage, pca/mean, pca/cov, stage, materialize, logreg/grad ×7",
			"open, reset, moments, stage, pca/mean, pca/cov, stage, materialize, logreg/grad ×7",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cl.Fit(context.Background(), tc.est, path); err != nil {
				t.Fatal(err)
			}
			got := log.take()
			for w := range got {
				if got[w] != tc.want[w] {
					t.Errorf("worker %d requests:\n got %q\nwant %q", w, got[w], tc.want[w])
				}
			}
		})
	}
}

// TestClusterRejectsWhatLocalRejects: option and shape validation
// lives in each trainer's one driver, so a fit the engine refuses is
// refused by the cluster too, for the same stated cause.
func TestClusterRejectsWhatLocalRejects(t *testing.T) {
	dir := t.TempDir()
	digits := filepath.Join(dir, "digits.m3")
	if err := GenerateInfimnist(digits, 300, 3); err != nil {
		t.Fatal(err)
	}
	oneRow := filepath.Join(dir, "one.m3")
	if err := GenerateInfimnist(oneRow, 1, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path, cause string
		est               Estimator
	}{
		{"logistic-negative-lambda", digits, "negative lambda -1",
			LogisticRegression{Binarize: true, Options: LogisticOptions{Lambda: -1}}},
		{"softmax-negative-lambda", digits, "negative lambda -1",
			SoftmaxRegression{Classes: 10, Options: LogisticOptions{Lambda: -1}}},
		{"linear-negative-lambda", digits, "negative lambda -1",
			LinearRegression{Options: LinearOptions{Lambda: -1}}},
		{"scaler-on-one-row", oneRow, "need >= 2 rows, got 1",
			Pipeline{Stages: []Transformer{StandardScaler{}}, Estimator: NaiveBayes{Classes: 10}}},
		{"pca-more-components-than-features", digits, "785 components exceed 784 features",
			PrincipalComponents{Options: PCAOptions{Components: InfimnistFeatures + 1}}},
	}

	cl := startTestCluster(t, 2, dist.WorkerConfig{Mode: InMemory, Workers: 1})
	eng := New(Config{Mode: InMemory, Workers: 2})
	defer eng.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := eng.Open(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Fit(context.Background(), tc.est, tbl); err == nil || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("local fit: err = %v, want %q", err, tc.cause)
			}
			if _, err := cl.Fit(context.Background(), tc.est, tc.path); err == nil || !strings.Contains(err.Error(), tc.cause) {
				t.Errorf("cluster fit: err = %v, want %q", err, tc.cause)
			}
		})
	}
}
