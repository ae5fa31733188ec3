package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"m3"
)

// sizes is the benchmark's load. fullSizes is what BENCHMARK.json's
// numbers are measured at; bench_test.go runs toy sizes.
type sizes struct {
	// trainRows is D, the table every fit runs on; refRows is R, the
	// k-NN reference table of the served "knn" model; queryRows is Q,
	// the request pool.
	trainRows, refRows, queryRows int
	// setupReps is how often a run repeats its whole set-up; setup_s
	// is their lower quartile, so one slow generation does not read
	// as a regression.
	setupReps int
	// rounds is how many rounds a run is cut into. Every round
	// measures every metric, so there are at least that many fit
	// repetitions and exactly that many pieces of each kind of load.
	rounds int
	// rate is each served model's open-loop schedule in requests per
	// second: about a third of what nproc closed-loop connections
	// reach on this sandbox (see README.md).
	rate map[string]float64
}

// 8192 × 784 float64 = 51 MB: 6× the two 4 MiB L2s, and small enough
// that three set-ups and eight cold repetitions leave the run-time cap
// room for the stretches in which the host runs everything at half
// speed.
var fullSizes = sizes{
	trainRows: 8192, refRows: 2048, queryRows: 256,
	setupReps: 3, rounds: 8,
	rate: map[string]float64{"logit": 400, "knn": 200},
}

const (
	knnK       = 5
	classes    = 10
	closedRows = 8 // rows per closed-loop request
	// accuracyFloor is the share of the majority class of the
	// "digit 0 vs rest" task; a reference model at or below it learned
	// nothing and cannot serve as an oracle.
	accuracyFloor = 0.90
)

// fitNames are the three fits; regimeFits those that run in the
// workload's regime.
var (
	fitNames    = []string{"logreg", "kmeans", "pipeline"}
	regimeFits  = fitNames[:2]
	pipelineFit = fitNames[2:]
)

// estimator builds the named fit of the paper's 10-iteration protocol.
// cb, when non-nil, runs at every iteration boundary of logreg and
// k-means; it never changes the fitted model.
func estimator(name string, seed uint64, cb func(m3.IterInfo) bool) m3.Estimator {
	logit := m3.LogisticRegression{Binarize: true, Positive: 0,
		Options: m3.LogisticOptions{MaxIterations: 10, FitOptions: m3.FitOptions{Callback: cb}}}
	switch name {
	case "logreg":
		return logit
	case "kmeans":
		return m3.KMeansClustering{Options: m3.KMeansOptions{
			K: 5, MaxIterations: 10, RunAllIterations: true, Seed: seed,
			FitOptions: m3.FitOptions{Callback: cb}}}
	case "pipeline":
		return m3.Pipeline{
			Stages:    []m3.Transformer{m3.StandardScaler{}, m3.MinMaxScaler{}},
			Estimator: logit,
		}
	}
	panic("unknown estimator " + name)
}

// table is a generated dataset file with its correctness oracle: the
// SHA-256 of each reference model's saved bytes. The repo's
// bit-identity contract says every backend, worker count and shard
// count must reproduce them.
type table struct {
	path string
	rows int
	ref  map[string][sha256.Size]byte
}

// matches reports whether saved model bytes equal the reference.
func (t table) matches(name string, saved []byte) bool {
	return sha256.Sum256(saved) == t.ref[name]
}

// inputs is everything a workload sees: files made from the seed and
// the expected outputs.
type inputs struct {
	dir   string
	seed  uint64
	sz    sizes
	train table
	// refsPath is R, the table the served k-NN model scans.
	refsPath string
	// logitPath is the reference logreg of the train table, the model
	// serve loads under the name "logit".
	logitPath string
	queries   *m3.Matrix
	// bodies1[i] is the request for query row i; bodiesN[i] the
	// request for rows [i*closedRows, (i+1)*closedRows).
	bodies1, bodiesN [][]byte
	// expect[model][i] is Model.PredictMatrix's answer for query i.
	expect   map[string][]float64
	accuracy float64
	// genSeconds is the time infimnist.Generator.WriteDataset took for
	// the train table (the dataset.write_mbps rung).
	genSeconds float64
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// saveBytes saves a model into the data directory and returns the
// file's content.
func saveBytes(m m3.Model, path string) ([]byte, error) {
	if err := m.Save(path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// setUp generates every input from the seed and fits the reference
// models on an InMemory, one-worker engine.
func setUp(ctx context.Context, dir string, seed uint64, sz sizes) (*inputs, error) {
	in := &inputs{dir: dir, seed: seed, sz: sz, expect: map[string][]float64{}}
	in.train = table{path: filepath.Join(dir, "D.m3"), rows: sz.trainRows}
	in.refsPath = filepath.Join(dir, "R.m3")
	queryPath := filepath.Join(dir, "Q.m3")

	start := time.Now()
	if err := m3.GenerateInfimnist(in.train.path, int64(sz.trainRows), seed); err != nil {
		return nil, err
	}
	in.genSeconds = time.Since(start).Seconds()
	if err := m3.GenerateInfimnist(in.refsPath, int64(sz.refRows), seed+1); err != nil {
		return nil, err
	}
	if err := m3.GenerateInfimnist(queryPath, int64(sz.queryRows), seed+2); err != nil {
		return nil, err
	}
	// Write the tables back now: left to the kernel's flusher, the
	// write-back of 90 MB of dirty pages lands in the first seconds of
	// the measurement and slows them.
	for _, path := range []string{in.train.path, in.refsPath, queryPath} {
		if err := syncFile(path); err != nil {
			return nil, err
		}
	}

	eng := m3.New(m3.Config{Mode: m3.InMemory, Workers: 1, TempDir: dir})
	defer eng.Close()
	q, err := eng.Open(queryPath)
	if err != nil {
		return nil, err
	}
	in.queries = q.X.Clone() // outlives the reference engine

	t, err := eng.Open(in.train.path)
	if err != nil {
		return nil, err
	}
	in.train.ref = map[string][sha256.Size]byte{}
	for _, name := range fitNames {
		model, err := eng.Fit(ctx, estimator(name, seed, nil), t)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		path := filepath.Join(dir, "ref-"+name+".model")
		saved, err := saveBytes(model, path)
		if err != nil {
			return nil, err
		}
		in.train.ref[name] = sha256.Sum256(saved)
		if name != "logreg" {
			continue
		}
		in.logitPath = path
		if in.expect["logit"], err = model.PredictMatrix(in.queries); err != nil {
			return nil, err
		}
		pred, err := model.PredictMatrix(t.X)
		if err != nil {
			return nil, err
		}
		want := eng.Dataset(t).BinaryLabels(0)
		hit := 0
		for i := range pred {
			if sameBits(pred[i], want[i]) {
				hit++
			}
		}
		in.accuracy = float64(hit) / float64(len(pred))
	}
	refs, err := eng.Open(in.refsPath)
	if err != nil {
		return nil, err
	}
	knn, err := eng.Fit(ctx, m3.KNNClassifier{K: knnK, Classes: classes}, refs)
	if err != nil {
		return nil, err
	}
	if in.expect["knn"], err = knn.PredictMatrix(in.queries); err != nil {
		return nil, err
	}
	if in.accuracy <= accuracyFloor {
		return nil, fmt.Errorf("reference logreg accuracy %.4f is not above the %.2f majority-class floor", in.accuracy, accuracyFloor)
	}

	in.bodies1 = make([][]byte, sz.queryRows)
	for i := range in.bodies1 {
		if in.bodies1[i], err = encodeRows(in.queries, i, i+1); err != nil {
			return nil, err
		}
	}
	in.bodiesN = make([][]byte, sz.queryRows/closedRows)
	for i := range in.bodiesN {
		if in.bodiesN[i], err = encodeRows(in.queries, i*closedRows, (i+1)*closedRows); err != nil {
			return nil, err
		}
	}
	return in, in.selfCheck()
}

// encodeRows is the predict request for query rows [lo, hi).
func encodeRows(q *m3.Matrix, lo, hi int) ([]byte, error) {
	rows := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, q.RawRow(i))
	}
	return json.Marshal(map[string][][]float64{"rows": rows})
}

// sameBits is exact equality: predictions and labels are class ids,
// never computed values.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// samePredictions is the per-request check.
func samePredictions(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return false
		}
	}
	return true
}

// selfCheck proves the oracle can fail: one flipped bit in a saved
// model and one changed expected prediction must both be noticed.
func (in *inputs) selfCheck() error {
	saved, err := os.ReadFile(in.logitPath)
	if err != nil {
		return err
	}
	if !in.train.matches("logreg", saved) {
		return errors.New("self-check: reference model does not match its own hash")
	}
	saved[len(saved)/2] ^= 1
	if in.train.matches("logreg", saved) {
		return errors.New("self-check: a corrupted model passed the hash check")
	}
	wrong := append([]float64(nil), in.expect["knn"]...)
	wrong[0]++
	if samePredictions(wrong, in.expect["knn"]) {
		return errors.New("self-check: a wrong prediction passed the equality check")
	}
	return nil
}
