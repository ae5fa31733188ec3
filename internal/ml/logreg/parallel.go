package logreg

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// GradPartial is one merge group's (or block's) contribution to the
// binary logistic loss and gradient — the pass's mergeable state.
// Fields are exported for gob.
type GradPartial struct {
	Loss float64
	Grad []float64 // d weights then bias
}

// gradArg is the logreg/grad pass's argument: the point to evaluate
// at and which label view to read.
type gradArg struct {
	Params    []float64
	Intercept bool
	Binarize  bool
	Positive  float64
}

// gradPass is the one data pass of binary logistic regression: the
// summed log-loss and gradient at Params.
var gradPass = fit.Declare("logreg/grad", func(sh *fit.Shard, a gradArg) (exec.Aggregate[*GradPartial], error) {
	y, err := sh.Binary(a.Binarize, a.Positive)
	if err != nil {
		return exec.Aggregate[*GradPartial]{}, err
	}
	d := sh.Cols
	w := a.Params[:d]
	var b float64
	if a.Intercept {
		b = a.Params[d]
	}
	return exec.Aggregate[*GradPartial]{
		Name:  "logreg grad",
		Alloc: func() *GradPartial { return &GradPartial{Grad: make([]float64, d+1)} },
		Reset: func(p *GradPartial) {
			p.Loss = 0
			clear(p.Grad)
		},
		Block: exec.EachRow(d, func(p *GradPartial, i int, row []float64) {
			z := blas.Dot(row, w) + b
			prob, l := sigmoidLoss(z, y[i])
			p.Loss += l
			diff := prob - y[i]
			blas.Axpy(diff, row, p.Grad[:d])
			p.Grad[d] += diff
		}),
		Merge: func(dst, src *GradPartial) {
			dst.Loss += src.Loss
			blas.Axpy(1, src.Grad, dst.Grad)
		},
	}, nil
})

// GradGroups computes the per-merge-group partials of the logreg/grad
// pass over x at params — what a distributed worker computes for its
// shard, with groupRows the global group height. benchmark/layers.go
// is its only caller (it prices a shard scan against a whole round);
// workers reach the pass through fit.Serve.
func GradGroups(ctx context.Context, x *mat.Dense, y []float64, params []float64, intercept bool, workers, groupRows int) ([]exec.GroupPartial[*GradPartial], float64, error) {
	agg, err := gradPass.New(&fit.Shard{Rows: x.Rows(), Cols: x.Cols(), Labels: y}, gradArg{Params: params, Intercept: intercept})
	if err != nil {
		return nil, 0, err
	}
	scan := x.ScanCtx(ctx, workers)
	scan.GroupRows = groupRows
	return agg.Groups(scan)
}

// ParallelObjective is the regularized binary logistic loss over a
// source of rows. Each Eval is one gradPass reduction — a blocked,
// worker-pooled scan in process, a broadcast round on a cluster — so
// the value is bit-identical for any worker count, backend or shard
// count (it may differ from the serial Objective in the last bits, as
// any floating-point re-association does); the arithmetic after the
// reduction is local.
type ParallelObjective struct {
	src       fit.Source
	n, d      int
	lambda    float64
	intercept bool
	binarize  bool
	positive  float64
	workers   int

	// Ctx, when non-nil, cancels data scans at block granularity; the
	// optimizer driving this objective must watch the same context,
	// because Eval's return value after cancellation is NaN.
	Ctx context.Context
	// Stall accumulates simulated paging stall seconds across Evals.
	Stall float64
	// Scans counts full passes over the data.
	Scans int
	// err is the first reduction error; every later Eval returns NaN,
	// which stops the optimizer, and TrainOn reports err.
	err error
}

// NewParallelObjective builds the objective over a local matrix with
// 0/1 labels. workers <= 0 defers to the matrix's engine hint and then
// runtime.NumCPU(); the execution layer clamps to the block count
// either way.
func NewParallelObjective(x *mat.Dense, y []float64, lambda float64, intercept bool, workers int) (*ParallelObjective, error) {
	o, err := newObjective(fit.NewLocal(x, y, workers), lambda, intercept, false, 0)
	if err != nil {
		return nil, err
	}
	o.workers = workers
	return o, nil
}

// newObjective validates the options and the source's label view.
func newObjective(src fit.Source, lambda float64, intercept, binarize bool, positive float64) (*ParallelObjective, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", lambda)
	}
	if _, err := src.Shard().Binary(binarize, positive); err != nil {
		return nil, err
	}
	o := &ParallelObjective{src: src, lambda: lambda, intercept: intercept, binarize: binarize, positive: positive}
	o.n, o.d = src.Dims()
	return o, nil
}

// Workers returns the configured worker knob (0 = inherit).
func (o *ParallelObjective) Workers() int { return o.workers }

// Dim returns the parameter count.
func (o *ParallelObjective) Dim() int {
	if o.intercept {
		return o.d + 1
	}
	return o.d
}

// Eval computes the loss and gradient with one pass over the source.
func (o *ParallelObjective) Eval(params, grad []float64) float64 {
	if o.err != nil {
		return math.NaN()
	}
	total, stall, err := fit.Reduce(o.Ctx, o.src, gradPass,
		gradArg{Params: params, Intercept: o.intercept, Binarize: o.binarize, Positive: o.positive})
	o.Stall += stall
	o.Scans++
	if err != nil {
		o.err = err
		return math.NaN()
	}
	d, w := o.d, params[:o.d]
	blas.Fill(grad, 0)
	nf := float64(o.n)
	loss := total.Loss / nf
	blas.AddScaled(grad[:d], grad[:d], 1/nf, total.Grad[:d])
	if o.intercept {
		grad[d] = total.Grad[d] / nf
	}
	loss += 0.5 * o.lambda * blas.Dot(w, w)
	blas.Axpy(o.lambda, w, grad[:d])
	return loss
}

// sigmoidLoss returns (P(y=1|z), per-example log-loss) with the
// numerically stable split on the sign of z.
func sigmoidLoss(z, y float64) (prob, loss float64) {
	if z >= 0 {
		ez := math.Exp(-z)
		prob = 1 / (1 + ez)
		if y == 1 {
			loss = math.Log1p(ez)
		} else {
			loss = z + math.Log1p(ez)
		}
		return prob, loss
	}
	ez := math.Exp(z)
	prob = ez / (1 + ez)
	if y == 1 {
		loss = -z + math.Log1p(ez)
	} else {
		loss = math.Log1p(ez)
	}
	return prob, loss
}
