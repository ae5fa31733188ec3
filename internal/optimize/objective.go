// Package optimize implements the optimizers used by the paper's
// experiments — most importantly L-BFGS, the quasi-Newton method
// mlpack's logistic regression runs (the paper reports 10 iterations
// of L-BFGS per data point in Figure 1) — and the strong-Wolfe line
// search it runs.
package optimize

import "fmt"

// Objective is a smooth function with gradient. Eval must write the
// gradient at x into grad (same length as x) and return f(x).
//
// Objectives over M3 datasets stream the data matrix once per Eval;
// the optimizer never needs the data itself, which is what makes the
// whole stack storage-transparent.
type Objective interface {
	// Dim returns the parameter dimensionality.
	Dim() int
	// Eval returns f(x) and writes ∇f(x) into grad.
	Eval(x, grad []float64) float64
}

// Status describes how an optimization run ended.
type Status int

const (
	// GradientConverged: the gradient norm fell below GradTol.
	GradientConverged Status = iota
	// FunctionConverged: relative function decrease fell below FuncTol.
	FunctionConverged
	// MaxIterationsReached: the iteration budget ran out.
	MaxIterationsReached
	// LineSearchFailed: no acceptable step was found.
	LineSearchFailed
	// CallbackStopped: the iteration callback requested a stop.
	CallbackStopped
	// Canceled: the context was cancelled; the accompanying error is
	// ctx.Err() and the Result holds the last completed iterate.
	Canceled
)

func (s Status) String() string {
	switch s {
	case GradientConverged:
		return "gradient converged"
	case FunctionConverged:
		return "function converged"
	case MaxIterationsReached:
		return "max iterations reached"
	case LineSearchFailed:
		return "line search failed"
	case CallbackStopped:
		return "stopped by callback"
	case Canceled:
		return "context cancelled"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// IterInfo is passed to iteration callbacks.
type IterInfo struct {
	// Iter is the 1-based iteration number just completed.
	Iter int
	// Value is f(x) after the iteration.
	Value float64
	// GradNorm is ‖∇f(x)‖₂ after the iteration.
	GradNorm float64
	// Step is the accepted line-search step length.
	Step float64
	// Evaluations is the cumulative objective evaluation count.
	Evaluations int
}

// Result reports the outcome of an optimization run.
type Result struct {
	// X is the final parameter vector.
	X []float64
	// Value is f(X).
	Value float64
	// GradNorm is ‖∇f(X)‖₂.
	GradNorm float64
	// Iterations completed.
	Iterations int
	// Evaluations counts objective evaluations (function+gradient).
	Evaluations int
	// Status describes the stopping reason.
	Status Status
}

// Converged reports whether the run ended at a stationary point
// (gradient or function tolerance met).
func (r Result) Converged() bool {
	return r.Status == GradientConverged || r.Status == FunctionConverged
}
