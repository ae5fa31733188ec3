package m3

import (
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
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

					lp := filepath.Join(dir, "local.model")
					rp := filepath.Join(dir, "remote.model")
					if err := local.Save(lp); err != nil {
						t.Fatal(err)
					}
					if err := remote.Save(rp); err != nil {
						t.Fatal(err)
					}
					lb, err := os.ReadFile(lp)
					if err != nil {
						t.Fatal(err)
					}
					rb, err := os.ReadFile(rp)
					if err != nil {
						t.Fatal(err)
					}
					if string(lb) != string(rb) {
						t.Fatalf("saved model bytes differ: local %d bytes, remote %d bytes", len(lb), len(rb))
					}
				})
			}
		})
	}
}

// TestClusterRejectsSequential: estimators whose math cannot shard
// are refused with an explanation, not silently approximated.
func TestClusterRejectsSequential(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.m3")
	if err := GenerateInfimnist(path, 300, 3); err != nil {
		t.Fatal(err)
	}
	cl := startTestCluster(t, 2, dist.WorkerConfig{Mode: InMemory, Workers: 1})

	if _, err := cl.Fit(context.Background(), SGDClassifier{Binarize: true}, path); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("SGD err = %v, want sequential rejection", err)
	}
	if _, err := cl.Fit(context.Background(), KNNClassifier{}, path); err == nil || !strings.Contains(err.Error(), "cannot be trained on a cluster") {
		t.Fatalf("KNN err = %v, want unsupported-estimator error", err)
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
