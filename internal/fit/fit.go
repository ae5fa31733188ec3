// Package fit defines the algorithm-agnostic slice of every trainer:
// the shared option surface (worker-pool override, iteration callback,
// verbosity — each algorithm's Options struct embeds FitOptions, so the
// knobs spell the same everywhere and the engine can thread its
// configuration into any trainer without knowing which one it is) and
// the seam between a trainer and its rows (pass.go: declared data
// passes, the Source they run over, the Shard their kernels read).
package fit

import (
	"context"
	"fmt"
	"os"

	"m3/internal/obs"
	"m3/internal/optimize"
)

// Canceled reports the cancellation state of an optional context (nil
// means the fit is not cancellable) — the entry check every trainer
// runs before touching data.
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// FitOptions is the shared training surface embedded by each
// algorithm's Options struct (logreg, linreg, kmeans, knn, sgd, bayes,
// pca, preprocess). The zero value inherits every engine default.
type FitOptions struct {
	// Workers overrides the chunked-execution worker pool for this fit
	// only: > 0 forces that many workers, <= 0 inherits the dataset's
	// engine setting (core.Config.Workers), falling back to
	// runtime.NumCPU() without one. Results are bit-identical for
	// every value — parallelism changes wall time, not answers.
	Workers int
	// Callback, when non-nil, runs after every iteration (L-BFGS
	// iteration, Lloyd pass, SGD epoch, ...); returning false stops
	// the fit early with a partial model.
	Callback func(optimize.IterInfo) bool
	// Verbose logs one line per iteration to stderr.
	Verbose bool
}

// ResolveWorkers applies the override chain: an explicit per-fit
// Workers beats the dataset/engine default; zero lets the execution
// layer pick runtime.NumCPU().
func (o FitOptions) ResolveWorkers(datasetWorkers int) int {
	if o.Workers > 0 {
		return o.Workers
	}
	return datasetWorkers
}

// Hook returns the iteration callback a trainer should invoke: a
// wrapper that records per-iteration optimizer progress into the obs
// Default registry (m3_fit_iterations_total / m3_fit_last_value,
// labeled by algo), runs verbose logging when requested, and
// delegates to the user callback. Always non-nil — the obs recording
// is how the unified metrics registry sees fit progress — and
// observation-only beyond the user callback's early-stop decision, so
// trainer results are unchanged.
func (o FitOptions) Hook(algo string) func(optimize.IterInfo) bool {
	progress := obs.FitProgress(algo)
	return func(info optimize.IterInfo) bool {
		progress(info.Value)
		if o.Verbose {
			fmt.Fprintf(os.Stderr, "%s: iter %d f=%.6g |g|=%.3g step=%.3g evals=%d\n",
				algo, info.Iter, info.Value, info.GradNorm, info.Step, info.Evaluations)
		}
		if o.Callback != nil {
			return o.Callback(info)
		}
		return true
	}
}
