package core

// The estimator surface: a Spark-MLlib-shaped interface pair that
// makes every M3 algorithm interchangeable behind Engine.Fit. The
// concrete estimators live in the public root package (they wrap the
// internal/ml trainers); core only defines the contract and the
// Dataset value that carries a table into training together with the
// engine's execution settings.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/obs"
)

// Dataset is what an Estimator trains on: a feature matrix, its
// labels, and the execution context the owning engine established
// (worker pool, storage backend). Engine.Fit builds one from a Table;
// engine-less callers (plain heap matrices) can construct it directly
// or through the root package's Fit helper. A cluster builds one whose
// rows live in its workers (RemoteDataset); estimators reach the rows
// of either kind through Source.
type Dataset struct {
	// X is the feature matrix (heap- or mmap-backed; estimators
	// cannot tell the difference). X is nil when the rows are remote.
	X *mat.Dense
	// Labels is the raw label vector from the dataset file (nil when
	// the data is unlabelled). Use BinaryLabels / IntLabels for typed
	// views.
	Labels []float64
	// Workers is the engine-resolved worker-pool size estimators
	// inherit unless their FitOptions override it. 0 lets the
	// execution layer pick runtime.NumCPU().
	Workers int
	// Mapped reports whether X is backed by a memory mapping.
	Mapped bool
	// Path is the source file, when the dataset came from one.
	Path string
	// Engine is the owning engine (nil for engine-less datasets).
	Engine *Engine

	// scratch is the engine allocation backing a transformed dataset
	// (nil for opened tables and caller-built datasets); Release frees
	// it early.
	scratch *ScratchMatrix
	// remote holds the rows when they live in other processes (nil
	// for rows in this one).
	remote Remote
}

// Remote is rows held by other processes, as a fit sees them: a
// fit.Source whose rounds those processes answer, whose holders can
// extend their views with a fitted stage and cache what they see.
type Remote interface {
	fit.Source
	// Fuse has every holder extend its view with a fitted stage; stage
	// is the value modelio persists for it.
	Fuse(ctx context.Context, stage any) error
	// Materialize has every holder cache its view.
	Materialize(ctx context.Context) error
}

// RemoteDataset returns a dataset whose rows are r's; its X is nil. It
// is linear: fusing a stage onto it or materializing it changes what
// every holder's view is, so the dataset that returns replaces it.
func RemoteDataset(r Remote) *Dataset { return &Dataset{remote: r} }

// Source returns where the rows are, for a trainer's driver: the
// remote rows themselves, or X and Labels scanned in process by
// workers (<= 0: X's engine hint, then NumCPU).
func (ds *Dataset) Source(workers int) fit.Source {
	if ds.remote != nil {
		return ds.remote
	}
	return fit.NewLocal(ds.X, ds.Labels, workers)
}

// InProcess returns nil when the rows are in this process, and
// otherwise the error that refuses who, a caller that needs them here,
// for the stated reason.
func (ds *Dataset) InProcess(who, why string) error {
	if ds.remote == nil {
		return nil
	}
	return fmt.Errorf("core: %s cannot train on rows sharded across a cluster: %s; train it locally instead", who, why)
}

// BinaryLabels returns a 0/1 view of the labels: entries equal to
// positive become 1, everything else 0 — the "digit d vs rest" tasks
// of the paper's experiments. Returns nil when the dataset is
// unlabelled.
func (ds *Dataset) BinaryLabels(positive float64) []float64 {
	if ds.Labels == nil {
		return nil
	}
	return fit.BinaryLabels(ds.Labels, positive)
}

// IntLabels returns the labels as class indices, validating that every
// entry is a whole number in [0, classes).
func (ds *Dataset) IntLabels(classes int) ([]int, error) {
	if ds.Labels == nil {
		return nil, errors.New("core: dataset has no labels")
	}
	return fit.IntLabels(ds.Labels, classes)
}

// Model is a fitted model: single-row and batch prediction plus
// persistence. Prediction returns a float64 whatever the task —
// classifiers return the class index, regressors the value, clusterers
// the cluster, transformers the leading coordinate — so models stay
// interchangeable behind the interface; richer accessors live on the
// concrete fitted types.
//
// Concurrency contract: once fitted, a Model's state is read-only,
// and Predict and PredictMatrix must be safe for concurrent use from
// many goroutines on the one model value — each call works on
// caller-provided input and per-call outputs/scratch (per-worker
// kernels for fused pipelines, per-scan search state for k-NN, atomic
// store Touch counters underneath). The serving layer relies on this:
// it issues overlapping PredictMatrix batches against a single model
// snapshot without locking.
type Model interface {
	// Predict scores a single feature row.
	Predict(row []float64) float64
	// PredictMatrix scores every row of x in one blocked parallel
	// scan, returning one value per row.
	PredictMatrix(x *mat.Dense) ([]float64, error)
	// Save persists the model to path in the self-describing modelio
	// format. Models without a serial form (k-NN) return an error.
	Save(path string) error
}

// Estimator is an unfitted algorithm configuration: Fit trains it on a
// dataset and returns the fitted model. Implementations must honor
// ctx (cancellation takes effect within one data block or iteration)
// and the dataset's Workers unless their own options override it.
type Estimator interface {
	Fit(ctx context.Context, ds *Dataset) (Model, error)
}

// Dataset builds the training view of an opened table, carrying the
// engine's worker configuration so estimators inherit it.
func (e *Engine) Dataset(t *Table) *Dataset {
	return &Dataset{
		X:       t.X,
		Labels:  t.Labels,
		Workers: e.Workers(),
		Mapped:  t.Mapped,
		Path:    t.Path,
		Engine:  e,
	}
}

// Fit trains an estimator on an opened table — the algorithm-agnostic
// entry point of the M3 API: the same call fits logistic regression,
// k-means or PCA, in-memory or out-of-core, and the engine's worker
// pool, store accounting and prefetch settings reach the trainer
// automatically. ctx cancels the fit within one data block or
// iteration, returning ctx.Err().
func (e *Engine) Fit(ctx context.Context, est Estimator, t *Table) (Model, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, errors.New("core: nil estimator")
	}
	if t == nil || t.X == nil {
		return nil, errors.New("core: nil table")
	}
	if obs.Enabled() {
		sp := obs.StartSpan("fit", fmt.Sprintf("fit %T", est)).
			SetArg("rows", t.X.Rows()).SetArg("cols", t.X.Cols()).
			SetArg("mapped", t.Mapped)
		defer sp.End()
	}
	return est.Fit(ctx, e.Dataset(t))
}
