package fit_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"m3"
	"m3/internal/infimnist"
)

// TestSavedModelsPinned is the whole-fit form of "recycled is never
// recycled": the bytes m3.Save writes for a k-means, a logistic and a
// scaled+PCA'd pipeline fit on 700 generated digits are pinned to the
// SHA-256 the tree printed while every block and every group still had
// a state of its own (the commit before states were recycled), for
// every pool size. A Reset that leaves anything behind moves a weight
// in the last place and with it the hash.
func TestSavedModelsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds.
		t.Skip("hashes were computed on amd64")
	}
	pools := []int{1, 2, 5}
	if testing.Short() {
		pools = []int{2} // the race run: one PCA over 784 columns is enough
	}
	const n = 700
	data, labels := infimnist.Generator{Seed: 5}.Matrix(0, n)
	x := m3.WrapMatrix(data, n, infimnist.Features)
	logit := func(w int) m3.LogisticRegression {
		return m3.LogisticRegression{Binarize: true, Positive: 3,
			Options: m3.LogisticOptions{MaxIterations: 6, FitOptions: m3.FitOptions{Workers: w}}}
	}
	for _, tc := range []struct {
		name, sha string
		est       func(workers int) m3.Estimator
	}{
		{"kmeans", "cce7c1c95727b5b34d32435aea8077f5c33fbd67649130e58ffc9f8fa9d06b3b",
			func(w int) m3.Estimator {
				return m3.KMeansClustering{Options: m3.KMeansOptions{K: 4, MaxIterations: 6, Seed: 9, FitOptions: m3.FitOptions{Workers: w}}}
			}},
		{"logreg", "71679dc37bd335f5e78c363e458e61911a86c97fbf6c9b0c360d702cd4632f3e",
			func(w int) m3.Estimator { return logit(w) }},
		{"pipeline", "bb022366100b7e6904ef8f18df780d7d5777a80b1712c9e4ff814420c6833390",
			func(w int) m3.Estimator {
				return m3.Pipeline{
					Stages:    []m3.Transformer{m3.StandardScaler{}, m3.PrincipalComponents{Options: m3.PCAOptions{Components: 6, Seed: 2}}},
					Estimator: logit(w),
				}
			}},
	} {
		for _, workers := range pools {
			model, err := m3.Fit(context.Background(), tc.est(workers), x, labels)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			path := filepath.Join(t.TempDir(), tc.name+".model")
			if err := model.Save(path); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(saved)); got != tc.sha {
				t.Errorf("%s workers=%d: saved model sha256 %s, pinned %s", tc.name, workers, got, tc.sha)
			}
		}
	}
}
