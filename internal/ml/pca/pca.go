// Package pca implements principal component analysis over
// (possibly memory-mapped) matrices: one streaming pass accumulates
// the covariance, then orthogonal power iteration with deflation
// extracts the leading components. Data is scanned exactly once
// regardless of the component count, so PCA joins naive Bayes at the
// cheap end of the scan-count spectrum M3 cares about.
package pca

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Options configures the decomposition.
type Options struct {
	// FitOptions carries the shared training surface; Workers sizes
	// the mean and covariance scans' pool (<= 0: engine hint, then
	// NumCPU). The decomposition is identical for every value.
	fit.FitOptions
	// Components is the number of principal components (required).
	Components int
	// MaxIterations bounds power iterations per component
	// (default 1000).
	MaxIterations int
	// Tol is the eigenvector convergence tolerance (default 1e-10).
	Tol float64
	// Seed drives the deterministic start vectors.
	Seed uint64
}

func (o Options) withDefaults() (Options, error) {
	if o.Components < 1 {
		return o, fmt.Errorf("pca: components = %d, want >= 1", o.Components)
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	return o, nil
}

// Result is a fitted decomposition.
type Result struct {
	// Components is row-major K×D: each row a unit-norm principal
	// direction.
	Components *mat.Dense
	// Eigenvalues are the corresponding covariance eigenvalues
	// (variance along each component), descending.
	Eigenvalues []float64
	// Mean is the feature mean subtracted before projection.
	Mean []float64
	// TotalVariance is the trace of the covariance.
	TotalVariance float64
}

// ExplainedRatio returns the fraction of total variance captured by
// each component.
func (r *Result) ExplainedRatio() []float64 {
	out := make([]float64, len(r.Eigenvalues))
	if r.TotalVariance == 0 {
		return out
	}
	for i, v := range r.Eigenvalues {
		out[i] = v / r.TotalVariance
	}
	return out
}

// Transform projects row onto the components, writing K coordinates
// into dst.
func (r *Result) Transform(row []float64, dst []float64) {
	r.TransformInto(row, dst, make([]float64, r.Components.Cols()))
}

// TransformInto is Transform with caller-provided centering scratch
// (length D), so hot loops — the blocked transform pass, batch
// prediction — project rows without a per-row allocation.
func (r *Result) TransformInto(row, dst, centered []float64) {
	k, d := r.Components.Dims()
	if len(row) != d || len(dst) != k || len(centered) != d {
		panic(fmt.Sprintf("pca: shapes row=%d dst=%d scratch=%d model=(%d,%d)", len(row), len(dst), len(centered), k, d))
	}
	blas.AddScaled(centered, row, -1, r.Mean)
	for c := 0; c < k; c++ {
		dst[c] = blas.Dot(centered, r.Components.RawRow(c))
	}
}

// Reconstruct maps K projected coordinates back to feature space.
func (r *Result) Reconstruct(coords []float64, dst []float64) {
	k, d := r.Components.Dims()
	if len(coords) != k || len(dst) != d {
		panic(fmt.Sprintf("pca: shapes coords=%d dst=%d model=(%d,%d)", len(coords), len(dst), k, d))
	}
	copy(dst, r.Mean)
	for c := 0; c < k; c++ {
		blas.Axpy(coords[c], r.Components.RawRow(c), dst)
	}
}

// InCols is the row width the projection consumes (D).
func (r *Result) InCols() int { return r.Components.Cols() }

// OutCols is the row width the projection produces (K).
func (r *Result) OutCols() int { return r.Components.Rows() }

// BlockKernel returns a fresh per-worker projection kernel for fused
// scans, locally and on a shard worker: one private centering buffer,
// no per-row allocation.
func (r *Result) BlockKernel() exec.RowKernel {
	centered := make([]float64, r.Components.Cols())
	return func(dst, src []float64) []float64 {
		r.TransformInto(src, dst, centered)
		return dst
	}
}

// FitOn computes the decomposition over any source of rows — the one
// driver local and distributed fits share. The rows are scanned
// exactly twice (mean pass + covariance pass); all further work is on
// the D×D covariance. ctx cancels either scan within one data block
// and the power iteration between components.
func FitOn(ctx context.Context, src fit.Source, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	n, d := src.Dims()
	if o.Components > d {
		return nil, fmt.Errorf("pca: %d components exceed %d features", o.Components, d)
	}
	if n < 2 {
		return nil, fmt.Errorf("pca: need >= 2 rows, got %d", n)
	}
	mean, _, err := fit.Reduce(ctx, src, meanPass, struct{}{})
	if err != nil {
		return nil, err
	}
	blas.Scal(1/float64(n), mean)
	cov, _, err := fit.Reduce(ctx, src, covPass, covArg{Mean: mean})
	if err != nil {
		return nil, err
	}
	return finishFromCov(ctx, cov.Part, mean, n, o)
}

// meanPass is the first data pass: blocked column sums (blas.SumRows
// per block).
var meanPass = fit.Declare("pca/mean", func(sh *fit.Shard, _ struct{}) (exec.Aggregate[[]float64], error) {
	d := sh.Cols
	return exec.Aggregate[[]float64]{
		Name:  "pca mean",
		Alloc: func() []float64 { return make([]float64, d) },
		Reset: func(sum []float64) { clear(sum) },
		Block: func(sum []float64, lo, hi int, block []float64, stride int) {
			blas.SumRows(hi-lo, d, block, stride, sum)
		},
		Merge: func(dst, src []float64) { blas.Axpy(1, src, dst) },
	}, nil
})

// CovPartial is one merge group's (or block's) share of the centered
// scatter matrix (upper triangle). The centering buffer is per-state
// scratch and unexported, so gob ships only the aggregate.
type CovPartial struct {
	Part     []float64
	centered []float64
}

// covArg is the pca/cov pass's argument: the global mean.
type covArg struct{ Mean []float64 }

// covPass is the second data pass: symmetric rank-1 accumulation of
// the scatter at the mean (blas.Syr on the upper triangle). Each state
// is a d×d matrix, so blocks are sized to hold at least ~d rows and
// the O(d²) zero+merge amortizes to O(d) per row. The centering buffer
// lives in the state, not the block closure: fused scans deliver
// single-row blocks, so a per-call allocation would be per row.
var covPass = fit.Declare("pca/cov", func(sh *fit.Shard, a covArg) (exec.Aggregate[*CovPartial], error) {
	d, mean := sh.Cols, a.Mean
	agg := exec.Aggregate[*CovPartial]{
		Name: "pca cov",
		Alloc: func() *CovPartial {
			return &CovPartial{Part: make([]float64, d*d), centered: make([]float64, d)}
		},
		Reset: func(st *CovPartial) {
			clear(st.Part)
			clear(st.centered)
		},
		Block: exec.EachRow(d, func(st *CovPartial, _ int, row []float64) {
			blas.AddScaled(st.centered, row, -1, mean)
			blas.Syr(d, 1, st.centered, st.Part, d)
		}),
		Merge: func(dst, src *CovPartial) { blas.Axpy(1, src.Part, dst.Part) },
	}
	if minBytes := d * d * 8; minBytes > exec.DefaultBlockBytes {
		agg.BlockBytes = minBytes
	}
	return agg, nil
})

// finishFromCov normalizes the folded scatter into the covariance and
// runs the orthogonal power iteration — everything after the data
// passes. cov is consumed (normalized in place); o must already carry
// defaults.
func finishFromCov(ctx context.Context, cov, mean []float64, n int, o Options) (*Result, error) {
	d := len(mean)
	inv := 1 / float64(n-1)
	var total float64
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov[a*d+b] * inv
			cov[a*d+b] = v
			cov[b*d+a] = v
		}
		total += cov[a*d+a]
	}

	res := &Result{
		Components:    mat.NewDense(o.Components, d),
		Eigenvalues:   make([]float64, o.Components),
		Mean:          mean,
		TotalVariance: total,
	}

	// Orthogonal power iteration with deflation.
	rng := o.Seed ^ 0x9e3779b97f4a7c15
	if rng == 0 {
		rng = 1
	}
	next := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%2000)/1000 - 1
	}
	v := make([]float64, d)
	av := make([]float64, d)
	for c := 0; c < o.Components; c++ {
		if err := fit.Canceled(ctx); err != nil {
			return nil, err
		}
		for i := range v {
			v[i] = next()
		}
		orthogonalize(v, res.Components, c)
		if nrm := blas.Nrm2(v); nrm > 0 {
			blas.Scal(1/nrm, v)
		}
		var lambda float64
		for iter := 0; iter < o.MaxIterations; iter++ {
			// Power iteration is the long pole for wide inputs
			// (MaxIterations × O(d²) per component), so cancellation
			// must be polled here, not just once per component.
			if err := fit.Canceled(ctx); err != nil {
				return nil, err
			}
			blas.Gemv(d, d, 1, cov, d, v, 0, av)
			orthogonalize(av, res.Components, c)
			nrm := blas.Nrm2(av)
			if nrm == 0 {
				break // remaining spectrum is zero
			}
			blas.Scal(1/nrm, av)
			lambda = nrm
			// Convergence: direction change.
			diff := 0.0
			for i := range v {
				dd := math.Abs(av[i]) - math.Abs(v[i])
				diff += dd * dd
			}
			copy(v, av)
			if diff < o.Tol*o.Tol {
				break
			}
		}
		res.Components.SetRow(c, v)
		res.Eigenvalues[c] = lambda
	}
	return res, nil
}

// orthogonalize removes the projections of v onto the first k rows of
// basis (Gram–Schmidt step).
func orthogonalize(v []float64, basis *mat.Dense, k int) {
	for c := 0; c < k; c++ {
		row := basis.RawRow(c)
		blas.Axpy(-blas.Dot(v, row), row, v)
	}
}
