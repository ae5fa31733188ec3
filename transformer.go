package m3

// Transformer API v3: preprocessing stages behind the same
// engine-bound surface as estimators.
//
//	scaler, err := m3.StandardScaler{}.FitTransform(ctx, ds) // blocked fitting scan
//	scaled, err := scaler.Transform(ctx, ds)                 // Engine-materialized
//	defer scaled.Release()
//
// Transform materializes its output *through the Engine*
// (Engine.AllocScratch): the transformed matrix lands on the heap
// when it fits the memory budget and in a temp-file mapping when it
// doesn't, so preprocessing obeys the same Table 1 property as
// training — the code never changes when the data outgrows RAM. The
// transform pass itself runs blocked and parallel on internal/exec
// with ctx cancellation at block granularity. Fitted transformers
// also satisfy Model (Predict reports the leading transformed
// coordinate), so any stage can be saved and reloaded uniformly via
// Load. For chaining stages into one estimator, see Pipeline.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/core"
	"m3/internal/ml/modelio"
	"m3/internal/ml/preprocess"
)

// Transformer is an unfitted preprocessing configuration; FitTransform
// learns its statistics from a dataset and returns the fitted stage.
type Transformer = core.Transformer

// TransformerModel is a fitted preprocessing stage: whole-dataset
// Transform (Engine-materialized), single-row TransformRow, and Save.
type TransformerModel = core.TransformerModel

// PreprocessOptions configures a scaler's fitting scan.
type PreprocessOptions = preprocess.Options

// BlockTransformer is the operator-fusion contract: a fitted stage
// exposing its per-worker block kernel, so pipeline scans apply the
// stage on the fly instead of materializing an intermediate matrix.
// Every fitted transformer in this package implements it.
type BlockTransformer = core.BlockTransformer

// transformDataset validates the input width and runs the shared
// Engine-mediated materialization pass (core.TransformDataset).
func transformDataset(ctx context.Context, ds *Dataset, wantCols, outCols, workers int, newFn func() core.RowKernel) (*Dataset, error) {
	if ds == nil || ds.X == nil {
		return nil, errors.New("m3: nil dataset")
	}
	if ds.X.Cols() != wantCols {
		return nil, fmt.Errorf("m3: dataset has %d features, transformer wants %d", ds.X.Cols(), wantCols)
	}
	return core.TransformDataset(ctx, ds, outCols, workers, newFn)
}

// stageFunc resolves a stage's per-goroutine row transform: a
// buffer-reusing closure over the stage's block kernel when the stage
// implements BlockTransformer (the returned slice is overwritten by
// the next call), falling back to the allocating TransformRow for
// third-party stages.
func stageFunc(s TransformerModel) func(src []float64) []float64 {
	if bt, ok := s.(BlockTransformer); ok {
		k := bt.BlockKernel()
		buf := make([]float64, bt.OutCols())
		return func(src []float64) []float64 { return k(buf, src) }
	}
	return s.TransformRow
}

// --- Standard scaler --------------------------------------------------

// StandardScaler estimates per-feature mean and standard deviation in
// one blocked parallel scan (per-block Welford moments, Chan-style
// ordered merge) and standardizes features to zero mean and unit
// variance.
type StandardScaler struct {
	// Options tunes the fitting scan (FitOptions...).
	Options PreprocessOptions
}

// FitTransform implements Transformer.
func (e StandardScaler) FitTransform(ctx context.Context, ds *Dataset) (TransformerModel, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	s, err := preprocess.FitStandardOn(ctx, ds.Source(opts.Workers))
	if err != nil {
		return nil, err
	}
	return &FittedStandardScaler{StandardScaler: s, workers: opts.Workers}, nil
}

// FittedStandardScaler is a fitted standardization; the embedded
// preprocess.StandardScaler exposes the per-feature Mean and Std and
// supplies the BlockTransformer kernel (InCols, OutCols, BlockKernel) —
// the one a shard worker fuses too.
type FittedStandardScaler struct {
	*preprocess.StandardScaler
	workers int
}

// NumFeatures returns the input (and output) feature count.
func (f *FittedStandardScaler) NumFeatures() int { return len(f.Mean) }

// Transform standardizes every row of ds into an Engine-materialized
// dataset (heap below the memory budget, mmap-backed above).
func (f *FittedStandardScaler) Transform(ctx context.Context, ds *Dataset) (*Dataset, error) {
	d := f.NumFeatures()
	return transformDataset(ctx, ds, d, d, f.workers, f.BlockKernel)
}

// TransformRow standardizes one row into a fresh slice.
func (f *FittedStandardScaler) TransformRow(row []float64) []float64 {
	out := append([]float64(nil), row...)
	f.StandardScaler.TransformRow(out)
	return out
}

// Predict returns the first standardized coordinate (the scalar
// summary of the uniform Model interface; use TransformRow for all
// coordinates).
func (f *FittedStandardScaler) Predict(row []float64) float64 {
	return (row[0] - f.Mean[0]) / f.Std[0]
}

// PredictMatrix returns the first standardized coordinate per row.
func (f *FittedStandardScaler) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.NumFeatures(), f.Predict)
}

// Save persists the scaler via modelio.
func (f *FittedStandardScaler) Save(path string) error {
	return modelio.SaveFile(path, f.StandardScaler)
}

// --- Min-max scaler ---------------------------------------------------

// MinMaxScaler estimates per-feature minima and ranges in one blocked
// parallel scan (exactly associative extrema merge) and rescales
// features into [0, 1].
type MinMaxScaler struct {
	// Options tunes the fitting scan (FitOptions...).
	Options PreprocessOptions
}

// FitTransform implements Transformer.
func (e MinMaxScaler) FitTransform(ctx context.Context, ds *Dataset) (TransformerModel, error) {
	opts := e.Options
	opts.Workers = opts.ResolveWorkers(ds.Workers)
	s, err := preprocess.FitMinMaxOn(ctx, ds.Source(opts.Workers))
	if err != nil {
		return nil, err
	}
	return &FittedMinMaxScaler{MinMaxScaler: s, workers: opts.Workers}, nil
}

// FittedMinMaxScaler is a fitted range scaling; the embedded
// preprocess.MinMaxScaler exposes the per-feature Min and Range and
// supplies the BlockTransformer kernel.
type FittedMinMaxScaler struct {
	*preprocess.MinMaxScaler
	workers int
}

// NumFeatures returns the input (and output) feature count.
func (f *FittedMinMaxScaler) NumFeatures() int { return len(f.Min) }

// Transform rescales every row of ds into an Engine-materialized
// dataset (heap below the memory budget, mmap-backed above).
func (f *FittedMinMaxScaler) Transform(ctx context.Context, ds *Dataset) (*Dataset, error) {
	d := f.NumFeatures()
	return transformDataset(ctx, ds, d, d, f.workers, f.BlockKernel)
}

// TransformRow rescales one row into a fresh slice.
func (f *FittedMinMaxScaler) TransformRow(row []float64) []float64 {
	out := append([]float64(nil), row...)
	f.MinMaxScaler.TransformRow(out)
	return out
}

// Predict returns the first rescaled coordinate.
func (f *FittedMinMaxScaler) Predict(row []float64) float64 {
	return (row[0] - f.Min[0]) / f.Range[0]
}

// PredictMatrix returns the first rescaled coordinate per row.
func (f *FittedMinMaxScaler) PredictMatrix(x *Matrix) ([]float64, error) {
	return predictRows(x, f.workers, f.NumFeatures(), f.Predict)
}

// Save persists the scaler via modelio.
func (f *FittedMinMaxScaler) Save(path string) error {
	return modelio.SaveFile(path, f.MinMaxScaler)
}

// --- PCA as a transformer ---------------------------------------------

// FitTransform implements Transformer: PCA is both an estimator and a
// dimensionality-reduction stage, so it can sit mid-pipeline between
// a scaler and a final estimator.
func (e PrincipalComponents) FitTransform(ctx context.Context, ds *Dataset) (TransformerModel, error) {
	m, err := e.Fit(ctx, ds)
	if err != nil {
		return nil, err
	}
	return m.(*FittedPCA), nil
}

// NumFeatures returns the input feature count (D).
func (f *FittedPCA) NumFeatures() int { return f.Components.Cols() }

// Transform projects every row of ds onto the K principal components,
// materializing the N×K coordinate matrix through the Engine (heap
// below the memory budget, mmap-backed above). Each worker's kernel
// reuses one centering buffer — no per-row allocation.
func (f *FittedPCA) Transform(ctx context.Context, ds *Dataset) (*Dataset, error) {
	k, d := f.Components.Dims()
	return transformDataset(ctx, ds, d, k, f.workers, f.BlockKernel)
}

// TransformRow projects one row onto the components, returning the K
// coordinates as a fresh slice.
func (f *FittedPCA) TransformRow(row []float64) []float64 {
	out := make([]float64, f.Components.Rows())
	f.PCAResult.Transform(row, out)
	return out
}
