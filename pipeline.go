package m3

// Pipeline: composition as the unit of the public API. A pipeline is
// an ordered chain of transformers ending in an estimator, and is
// itself an Estimator — so the algorithm-agnostic entry point fits a
// whole preprocess→train workflow unchanged:
//
//	pipe := m3.Pipeline{
//	    Stages:    []m3.Transformer{m3.StandardScaler{}, m3.PrincipalComponents{Options: m3.PCAOptions{Components: 16}}},
//	    Estimator: m3.LogisticRegression{Binarize: true},
//	}
//	model, err := eng.Fit(ctx, pipe, tbl) // scale → PCA → logreg, end to end
//
// Pipelines are fused: stages whose fitted form exposes a block
// kernel (BlockTransformer — every stage in this package) are never
// materialized. Each stage's statistics are fitted directly on a
// virtual fused view of all prior stages (core.FusedDataset), whose
// scans apply the chain between the block read and the consumer — so
// the fitting passes touch only the source data, at disk bandwidth.
// The final estimator is then classified: bounded-pass trainers
// (NaiveBayes, exact LinearRegression, PrincipalComponents) train
// straight off the fused view, while multi-epoch trainers (L-BFGS,
// SGD, k-means) get the final transformed matrix materialized exactly
// once as a cache — through Engine.AllocScratch (heap when it fits
// the memory budget, mmap-backed temp file above it), built by one
// fused pass. A K-stage pipeline therefore performs at most one
// intermediate materialization instead of K. Third-party stages
// without a block kernel fall back to the materializing Transform
// path; a failed or cancelled fit still leaves no temp file behind.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/modelio"
	"m3/internal/ml/preprocess"
	"m3/internal/obs"
)

// Pipeline chains preprocessing transformers and a final estimator
// into one Estimator. Stages run in order; each stage is fitted on a
// fused view of the previous stages' output (materialized only for
// stages without a block kernel — see the package comment).
//
// The final estimator must not retain the training matrix beyond Fit:
// the training cache (when one is materialized) is released when Fit
// returns, and fused views borrow the caller's dataset. KNNClassifier
// — whose fitted model is the training matrix — is therefore rejected.
type Pipeline struct {
	// Stages are the preprocessing transformers, applied in order.
	Stages []Transformer
	// Estimator is the final training stage (required).
	Estimator Estimator
}

// streamingFitter is implemented by estimators whose Fit consumes the
// dataset in a bounded number of forward scans — pipelines train them
// straight off the fused view; everything else trains on a cache
// materialized by one fused pass.
type streamingFitter interface{ streamingFit() bool }

// isStreamingFit resolves the marker for value and pointer estimators.
func isStreamingFit(e Estimator) bool {
	if s, ok := e.(streamingFitter); ok {
		return s.streamingFit()
	}
	return false
}

// Fit implements Estimator: it fits every transformer stage on the
// fused view of its predecessors, then fits the final estimator —
// directly on the fused view for bounded-pass trainers, or on a
// once-materialized cache for multi-epoch trainers — returning a
// *FittedPipeline. ctx cancels within one data block of whichever
// scan is running; on any error every intermediate allocated so far
// is released.
func (p Pipeline) Fit(ctx context.Context, ds *Dataset) (Model, error) {
	if p.Estimator == nil {
		return nil, errors.New("m3: pipeline has no final estimator")
	}
	switch p.Estimator.(type) {
	case KNNClassifier, *KNNClassifier:
		// FittedKNN retains the training matrix, but the pipeline's
		// training cache is released when Fit returns — the model
		// would read freed (possibly unmapped) memory.
		return nil, errors.New("m3: KNNClassifier cannot terminate a pipeline (it retains the training matrix, which pipelines release); transform the dataset explicitly and keep it open instead")
	}
	for i, st := range p.Stages {
		if st == nil {
			return nil, fmt.Errorf("m3: pipeline stage %d is nil", i)
		}
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}

	// cur is the dataset the next stage fits on: ds, a fused view
	// over ds (or over owned), or a materialized fallback; fusedView
	// reports that stages have been fused onto it since it was last
	// materialized. owned is the one materialized intermediate we
	// hold, if any.
	cur := ds
	fusedView := false
	var owned *Dataset
	release := func() error {
		d := owned
		owned = nil
		if d == nil {
			return nil
		}
		return d.Release()
	}
	stages := make([]TransformerModel, 0, len(p.Stages))
	fused := make([]bool, 0, len(p.Stages))
	materializations := 0
	cacheMapped := false
	for i, st := range p.Stages {
		tm, err := func() (TransformerModel, error) {
			// The span closes on every exit (including cancellation mid
			// scan) via defer; End is idempotent and nil-safe.
			sp := obs.StartSpan("pipeline", fmt.Sprintf("stage %d fit %T", i, st))
			defer sp.End()
			return st.FitTransform(ctx, cur)
		}()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("m3: pipeline stage %d: %w", i, err), release())
		}
		if bt, ok := tm.(BlockTransformer); ok {
			// Fuse: extend the virtual view — no materialization, no
			// extra pass. Nested views compose down to one chain, so
			// the source is still read once per row.
			next, err := fuse(ctx, cur, tm, bt)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("m3: pipeline stage %d: %w", i, err), release())
			}
			cur, fusedView = next, true
			stages = append(stages, tm)
			fused = append(fused, true)
			continue
		}
		// Fallback for third-party stages without a block kernel:
		// materialize through the engine. The pass runs on the fused
		// view, so any pending chain is applied in the same scan.
		if err := cur.InProcess(fmt.Sprintf("pipeline stage %d (%T)", i, tm), "it has no block kernel, so its output is materialized in this process"); err != nil {
			return nil, errors.Join(err, release())
		}
		next, err := func() (*Dataset, error) {
			sp := obs.StartSpan("pipeline", fmt.Sprintf("stage %d materialize", i))
			defer sp.End()
			return tm.Transform(ctx, cur)
		}()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("m3: pipeline stage %d: %w", i, err), release())
		}
		// The previous intermediate (if any) has been consumed; free
		// its backing (and temp file) before continuing.
		if err := release(); err != nil {
			return nil, errors.Join(err, next.Release())
		}
		cur, owned, fusedView = next, next, false
		materializations++
		cacheMapped = next.Mapped
		stages = append(stages, tm)
		fused = append(fused, false)
	}

	// Classify the final estimator: bounded-pass trainers stream off
	// the fused view; multi-epoch trainers get the transformed matrix
	// materialized exactly once, by a single fused pass.
	if fusedView && !isStreamingFit(p.Estimator) {
		cache, err := func() (*Dataset, error) {
			sp := obs.StartSpan("pipeline", "materialize cache")
			defer sp.End()
			return core.Materialize(ctx, cur, 0)
		}()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("m3: pipeline cache: %w", err), release())
		}
		if err := release(); err != nil {
			return nil, errors.Join(err, cache.Release())
		}
		cur, owned = cache, cache
		materializations++
		cacheMapped = cache.Mapped
	}

	final, ferr := func() (Model, error) {
		sp := obs.StartSpan("pipeline", fmt.Sprintf("final fit %T", p.Estimator))
		defer sp.End()
		return p.Estimator.Fit(ctx, cur)
	}()
	if err := errors.Join(ferr, release()); err != nil {
		return nil, err
	}
	return &FittedPipeline{
		stages:           stages,
		final:            final,
		fused:            fused,
		materializations: materializations,
		cacheMapped:      cacheMapped,
	}, nil
}

// fuse extends cur's view with a fitted stage: a fused view over the
// matrix in process, or, when the rows are remote, the stage's serial
// form pushed to every holder of them — cur is then that view.
func fuse(ctx context.Context, cur *Dataset, tm TransformerModel, bt BlockTransformer) (*Dataset, error) {
	remote, ok := cur.Source(0).(core.Remote)
	if !ok {
		return core.FusedDataset(cur, []core.BlockTransformer{bt})
	}
	stage, err := innerModel(tm)
	if err != nil {
		return nil, err
	}
	if err := remote.Fuse(ctx, stage); err != nil {
		return nil, err
	}
	return cur, nil
}

// FittedPipeline is a fitted chain: every prediction routes the row
// through each stage's kernel before the final model.
type FittedPipeline struct {
	stages []TransformerModel
	final  Model

	fused            []bool
	materializations int
	cacheMapped      bool
}

// Stages returns the fitted transformer stages in application order.
func (f *FittedPipeline) Stages() []TransformerModel { return f.stages }

// FinalModel returns the fitted final estimator (a concrete Fitted*
// type exposing the rich inner model).
func (f *FittedPipeline) FinalModel() Model { return f.final }

// StageFused reports, per stage, whether Fit ran the stage fused
// (virtual view, no intermediate materialization) — true for every
// stage implementing BlockTransformer. Nil for pipelines
// reconstructed by Load.
func (f *FittedPipeline) StageFused() []bool { return f.fused }

// Materializations returns how many intermediate matrices Fit
// materialized through the engine: 0 when every stage fused and the
// final estimator streamed, 1 when a multi-epoch final estimator
// needed the transformed cache, more only when third-party stages
// lacked a block kernel. Zero for pipelines reconstructed by Load.
func (f *FittedPipeline) Materializations() int { return f.materializations }

// CacheMapped reports whether the last materialized intermediate (the
// training cache, normally) was mmap-backed — true when it exceeded
// the engine's memory budget. False when nothing was materialized.
func (f *FittedPipeline) CacheMapped() bool { return f.cacheMapped }

// inputCols reports the feature width the first stage expects, when
// known.
func (f *FittedPipeline) inputCols() (int, bool) {
	if len(f.stages) == 0 {
		return 0, false
	}
	if nf, ok := f.stages[0].(interface{ NumFeatures() int }); ok {
		return nf.NumFeatures(), true
	}
	return 0, false
}

// Predict routes one row through every stage's TransformRow and the
// final model's Predict.
func (f *FittedPipeline) Predict(row []float64) float64 {
	for _, s := range f.stages {
		row = s.TransformRow(row)
	}
	return f.final.Predict(row)
}

// blockChain returns the stage chain as BlockTransformers, or nil if
// any stage lacks a block kernel.
func (f *FittedPipeline) blockChain() []core.BlockTransformer {
	chain := make([]core.BlockTransformer, len(f.stages))
	for i, s := range f.stages {
		bt, ok := s.(core.BlockTransformer)
		if !ok {
			return nil
		}
		chain[i] = bt
	}
	return chain
}

// PredictMatrix routes every row of x through the stage chain and the
// final model in one blocked parallel scan. When every stage exposes
// its block kernel (always, for stages from this package), prediction
// runs on a fused view of x through the same kernel contract as fit:
// one kernel chain per worker, zero per-row allocation. Third-party
// stages fall back to a per-worker closure chain.
func (f *FittedPipeline) PredictMatrix(x *Matrix) ([]float64, error) {
	if len(f.stages) == 0 {
		return f.final.PredictMatrix(x)
	}
	if x == nil {
		return nil, errors.New("m3: nil matrix")
	}
	if want, ok := f.inputCols(); ok && x.Cols() != want {
		return nil, fmt.Errorf("m3: matrix has %d features, pipeline wants %d", x.Cols(), want)
	}
	if chain := f.blockChain(); chain != nil {
		in := x.Cols()
		for i, bt := range chain {
			if bt.InCols() != in {
				return nil, fmt.Errorf("m3: pipeline stage %d expects %d features, previous stage yields %d", i, bt.InCols(), in)
			}
			in = bt.OutCols()
		}
		fx := mat.NewFused(x, in, core.FuseKernels(chain))
		return f.final.PredictMatrix(fx)
	}
	out := make([]float64, x.Rows())
	_, _, err := exec.ReduceRows(x.Scan(0).Named("pipeline predict"),
		func() []func([]float64) []float64 {
			chain := make([]func([]float64) []float64, len(f.stages))
			for i, s := range f.stages {
				chain[i] = stageFunc(s)
			}
			return chain
		},
		func(chain []func([]float64) []float64, i int, row []float64) {
			for _, fn := range chain {
				row = fn(row)
			}
			out[i] = f.final.Predict(row)
		},
		func(dst, src []func([]float64) []float64) {})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Save persists the whole chain as one KindPipeline envelope with one
// nested envelope per stage; Load reconstructs it.
func (f *FittedPipeline) Save(path string) error {
	p, err := f.inner()
	if err != nil {
		return err
	}
	return modelio.SaveFile(path, p)
}

// inner converts the fitted chain to modelio's neutral pipeline form.
func (f *FittedPipeline) inner() (*modelio.Pipeline, error) {
	vals := make([]any, 0, len(f.stages)+1)
	for i, s := range f.stages {
		v, err := innerModel(s)
		if err != nil {
			return nil, fmt.Errorf("m3: pipeline stage %d: %w", i, err)
		}
		vals = append(vals, v)
	}
	v, err := innerModel(f.final)
	if err != nil {
		return nil, err
	}
	return &modelio.Pipeline{Stages: append(vals, v)}, nil
}

// innerModel unwraps a fitted model to the inner value modelio
// persists.
func innerModel(m any) (any, error) {
	switch v := m.(type) {
	case *FittedLogistic:
		return v.LogisticModel, nil
	case *FittedSoftmax:
		return v.SoftmaxModel, nil
	case *FittedLinear:
		return v.LinearModel, nil
	case *FittedKMeans:
		return v.KMeansResult, nil
	case *FittedBayes:
		return v.BayesModel, nil
	case *FittedPCA:
		return v.PCAResult, nil
	case *FittedStandardScaler:
		return v.StandardScaler, nil
	case *FittedMinMaxScaler:
		return v.MinMaxScaler, nil
	case *FittedPipeline:
		return v.inner()
	}
	return nil, fmt.Errorf("m3: %T has no serial form", m)
}

// Load reads any model saved through Model.Save (or SaveModel) and
// reconstructs the fitted model — the round-trip counterpart of Save
// that the v1/v2 surface never had. Every modelio kind is supported,
// including whole pipelines (each nested stage envelope is rebuilt
// into its fitted transformer, transformers into TransformerModel
// stages and the last envelope into the final model). Loaded models
// predict with default parallelism (engine hints on the matrices they
// are applied to, then NumCPU).
//
// The returned ModelInfo carries the file-header metadata (kind,
// expected input width, class count, pipeline stage kinds) — what a
// serving layer needs to validate requests without poking at concrete
// model types. Describe returns the same ModelInfo without loading
// the payload.
func Load(path string) (Model, ModelInfo, error) {
	v, kind, meta, err := modelio.LoadFileMeta(path)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	m, err := wrapLoaded(v)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	return m, modelInfo(kind, meta), nil
}

// wrapLoaded rebuilds the fitted wrapper for a modelio inner value.
func wrapLoaded(v any) (Model, error) {
	switch m := v.(type) {
	case *LogisticModel:
		return &FittedLogistic{LogisticModel: m}, nil
	case *SoftmaxModel:
		return &FittedSoftmax{SoftmaxModel: m}, nil
	case *LinearModel:
		return &FittedLinear{LinearModel: m}, nil
	case *KMeansResult:
		return &FittedKMeans{KMeansResult: m}, nil
	case *BayesModel:
		return &FittedBayes{BayesModel: m}, nil
	case *PCAResult:
		return &FittedPCA{PCAResult: m}, nil
	case *preprocess.StandardScaler:
		return &FittedStandardScaler{StandardScaler: m}, nil
	case *preprocess.MinMaxScaler:
		return &FittedMinMaxScaler{MinMaxScaler: m}, nil
	case *modelio.Pipeline:
		if len(m.Stages) == 0 {
			return nil, errors.New("m3: empty pipeline envelope")
		}
		stages := make([]TransformerModel, 0, len(m.Stages)-1)
		for i, s := range m.Stages[:len(m.Stages)-1] {
			w, err := wrapLoaded(s)
			if err != nil {
				return nil, fmt.Errorf("m3: pipeline stage %d: %w", i, err)
			}
			tm, ok := w.(TransformerModel)
			if !ok {
				return nil, fmt.Errorf("m3: pipeline stage %d (%T) is not a transformer", i, w)
			}
			stages = append(stages, tm)
		}
		final, err := wrapLoaded(m.Stages[len(m.Stages)-1])
		if err != nil {
			return nil, err
		}
		return &FittedPipeline{stages: stages, final: final}, nil
	}
	return nil, fmt.Errorf("m3: no fitted form for %T", v)
}
