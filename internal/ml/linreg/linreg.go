// Package linreg implements ridge linear regression over
// (possibly memory-mapped) matrices, trained either by streaming
// L-BFGS — the same iteration structure as the paper's logistic
// regression, so it inherits M3's paging behaviour unchanged — or by
// the closed-form normal equations for low-dimensional problems.
package linreg

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/optimize"
)

// Options configures training.
type Options struct {
	// FitOptions carries the shared training surface (workers
	// override, iteration callback, verbosity).
	fit.FitOptions
	// Lambda is the ridge penalty (default 1e-6).
	Lambda float64
	// NoIntercept disables the bias term.
	NoIntercept bool
	// MaxIterations bounds L-BFGS (default 100).
	MaxIterations int
	// GradTol is the L-BFGS gradient tolerance (default 1e-8).
	GradTol float64
}

func (o Options) withDefaults() Options {
	if o.Lambda == 0 {
		o.Lambda = 1e-6
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-8
	}
	return o
}

// Model is a fitted linear regressor.
type Model struct {
	// Weights holds one coefficient per feature.
	Weights []float64
	// Intercept is the bias (0 without intercept).
	Intercept float64
}

// Predict returns w·row + b.
func (m *Model) Predict(row []float64) float64 {
	return blas.Dot(row, m.Weights) + m.Intercept
}

// MSE computes the mean squared error over a matrix.
func (m *Model) MSE(x *mat.Dense, y []float64) float64 {
	if x.Rows() == 0 {
		return 0
	}
	var sse float64
	x.ForEachRow(func(i int, row []float64) {
		d := m.Predict(row) - y[i]
		sse += d * d
	})
	return sse / float64(x.Rows())
}

// R2 computes the coefficient of determination over a matrix.
func (m *Model) R2(x *mat.Dense, y []float64) float64 {
	n := x.Rows()
	if n == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var ssTot float64
	for _, v := range y {
		d := v - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - m.MSE(x, y)*float64(n)/ssTot
}

// Objective is the ridge least-squares loss over a source of rows; it
// implements optimize.Objective. Each Eval is one lsqPass reduction —
// a blocked, worker-pooled scan in process, a broadcast round on a
// cluster — bit-identical for any worker, backend or shard count.
type Objective struct {
	src       fit.Source
	n, d      int
	lambda    float64
	intercept bool
	// Ctx, when non-nil, cancels data scans at block granularity.
	Ctx context.Context
	// Scans counts full passes.
	Scans int
	// err is the first reduction error; every later Eval returns NaN,
	// which stops the optimizer, and TrainOn reports err.
	err error
}

// newObjective validates the options and the source's targets.
func newObjective(src fit.Source, lambda float64, intercept bool) (*Objective, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linreg: negative lambda %v", lambda)
	}
	if _, err := src.Shard().Targets(); err != nil {
		return nil, err
	}
	o := &Objective{src: src, lambda: lambda, intercept: intercept}
	o.n, o.d = src.Dims()
	return o, nil
}

// Dim returns the parameter count.
func (o *Objective) Dim() int {
	if o.intercept {
		return o.d + 1
	}
	return o.d
}

// LsqPartial is one merge group's (or block's) share of the
// least-squares loss and gradient — the pass's mergeable state. Fields
// are exported for gob.
type LsqPartial struct {
	SSE, GB float64
	GW      []float64
}

// lsqArg is the linreg/lsq pass's argument.
type lsqArg struct {
	Params    []float64
	Intercept bool
}

// lsqPass is the data pass of the iterative path: squared error and
// its gradient at Params.
var lsqPass = fit.Declare("linreg/lsq", func(sh *fit.Shard, a lsqArg) (exec.Aggregate[*LsqPartial], error) {
	y, err := sh.Targets()
	if err != nil {
		return exec.Aggregate[*LsqPartial]{}, err
	}
	d := sh.Cols
	w := a.Params[:d]
	var b float64
	if a.Intercept {
		b = a.Params[d]
	}
	return exec.Aggregate[*LsqPartial]{
		Name:  "linreg grad",
		Alloc: func() *LsqPartial { return &LsqPartial{GW: make([]float64, d)} },
		Reset: func(p *LsqPartial) {
			p.SSE, p.GB = 0, 0
			clear(p.GW)
		},
		Block: exec.EachRow(d, func(p *LsqPartial, i int, row []float64) {
			r := blas.Dot(row, w) + b - y[i]
			p.SSE += r * r
			blas.Axpy(r, row, p.GW)
			p.GB += r
		}),
		Merge: func(dst, src *LsqPartial) {
			dst.SSE += src.SSE
			dst.GB += src.GB
			blas.Axpy(1, src.GW, dst.GW)
		},
	}, nil
})

// Eval computes ½·mean((w·x+b−y)²) + ½λ‖w‖² and its gradient with one
// pass over the source.
func (o *Objective) Eval(params, grad []float64) float64 {
	if o.err != nil {
		return math.NaN()
	}
	total, _, err := fit.Reduce(o.Ctx, o.src, lsqPass, lsqArg{Params: params, Intercept: o.intercept})
	o.Scans++
	if err != nil {
		o.err = err
		return math.NaN()
	}
	d, w := o.d, params[:o.d]
	blas.Fill(grad, 0)
	gw := grad[:d]
	nf := float64(o.n)
	blas.AddScaled(gw, gw, 1/nf, total.GW)
	if o.intercept {
		grad[d] = total.GB / nf
	}
	loss := 0.5 * total.SSE / nf
	loss += 0.5 * o.lambda * blas.Dot(w, w)
	blas.Axpy(o.lambda, w, gw)
	return loss
}

// TrainOn fits the model with blocked L-BFGS scans of any source of
// rows — the one iterative driver local and distributed fits share.
// ctx cancels the fit within one data block.
func TrainOn(ctx context.Context, src fit.Source, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	obj, err := newObjective(src, o.Lambda, !o.NoIntercept)
	if err != nil {
		return nil, err
	}
	obj.Ctx = ctx
	res, err := optimize.LBFGS(ctx, obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: o.MaxIterations,
		GradTol:       o.GradTol,
		Callback:      o.Hook("linreg"),
	})
	if obj.err != nil {
		return nil, obj.err
	}
	if err != nil {
		return nil, err
	}
	m := &Model{Weights: res.X[:obj.d]}
	if !o.NoIntercept {
		m.Intercept = res.X[obj.d]
	}
	return m, nil
}

// TrainExactOn solves the ridge normal equations (XᵀX + λI)w = Xᵀy by
// Cholesky factorization over any source of rows: one gramPass
// reduction builds the Gram matrix, then the ridge and the O(d³)
// solve, so this path suits d up to a few thousand. The intercept is
// handled by augmenting with a constant column (unregularized). ctx
// cancels the Gram scan within one data block.
func TrainExactOn(ctx context.Context, src fit.Source, opts Options) (*Model, error) {
	o := opts.withDefaults()
	total, _, err := fit.Reduce(ctx, src, gramPass, gramArg{NoIntercept: o.NoIntercept})
	if err != nil {
		return nil, err
	}
	n, d := src.Dims()
	p := len(total.RHS)
	gram, rhs := total.Gram, total.RHS
	// Ridge on weights only, scaled by the global row count.
	for a := 0; a < d; a++ {
		gram[a*p+a] += o.Lambda * float64(n)
	}
	w, err := choleskySolve(gram, rhs, p)
	if err != nil {
		return nil, err
	}
	m := &Model{Weights: w[:d]}
	if !o.NoIntercept {
		m.Intercept = w[d]
	}
	return m, nil
}

// GramPartial is one merge group's (or block's) share of the ridge
// normal equations: a p×p Gram block and the Xᵀy right-hand side (p =
// d+1 with an intercept column) — the exact path's mergeable state.
// Fields are exported for gob.
type GramPartial struct {
	Gram, RHS []float64
}

// gramArg is the linreg/gram pass's argument.
type gramArg struct{ NoIntercept bool }

// gramPass is the exact path's single data pass: the normal equations.
// Each state carries a p×p block, so blocks hold at least ~p rows and
// the O(p²) zero+merge amortizes to O(p) per row.
var gramPass = fit.Declare("linreg/gram", func(sh *fit.Shard, a gramArg) (exec.Aggregate[*GramPartial], error) {
	y, err := sh.Targets()
	if err != nil {
		return exec.Aggregate[*GramPartial]{}, err
	}
	d, noIntercept := sh.Cols, a.NoIntercept
	p := d
	if !noIntercept {
		p++
	}
	agg := exec.Aggregate[*GramPartial]{
		Name:  "linreg gram",
		Alloc: func() *GramPartial { return &GramPartial{Gram: make([]float64, p*p), RHS: make([]float64, p)} },
		Reset: func(g *GramPartial) {
			clear(g.Gram)
			clear(g.RHS)
		},
		Block: exec.EachRow(d, func(g *GramPartial, i int, row []float64) {
			for a := 0; a < d; a++ {
				va := row[a]
				if va == 0 {
					continue
				}
				blas.Axpy(va, row, g.Gram[a*p:a*p+d])
				if !noIntercept {
					g.Gram[a*p+d] += va
				}
				g.RHS[a] += va * y[i]
			}
			if !noIntercept {
				blas.Axpy(1, row, g.Gram[d*p:d*p+d])
				g.Gram[d*p+d]++
				g.RHS[d] += y[i]
			}
		}),
		Merge: func(dst, src *GramPartial) {
			blas.Axpy(1, src.Gram, dst.Gram)
			blas.Axpy(1, src.RHS, dst.RHS)
		},
	}
	if minBytes := p * p * 8; minBytes > exec.DefaultBlockBytes {
		agg.BlockBytes = minBytes
	}
	return agg, nil
})

// choleskySolve solves Ax=b for symmetric positive-definite A (n×n,
// row-major), overwriting nothing.
func choleskySolve(a, b []float64, n int) ([]float64, error) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i*n+j]
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("linreg: gram matrix not positive definite (pivot %d = %g)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	// Forward substitution: L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * z[k]
		}
		z[i] = sum / l[i*n+i]
	}
	// Back substitution: Lᵀ x = z.
	xs := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * xs[k]
		}
		xs[i] = sum / l[i*n+i]
	}
	return xs, nil
}
