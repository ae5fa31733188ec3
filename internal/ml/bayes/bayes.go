// Package bayes implements Gaussian naive Bayes classification.
// Training is a single streaming pass computing per-class feature
// means and variances — the cheapest possible M3 workload (one scan
// total, against one scan *per iteration* for the optimizers), which
// makes it a useful lower-bound baseline in scan-count ablations.
package bayes

import (
	"context"
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Options configures training.
type Options struct {
	// FitOptions carries the shared training surface; Workers sizes
	// the counting scan's pool (<= 0: engine hint, then NumCPU). The
	// fitted model is identical for every value.
	fit.FitOptions
	// VarSmoothing is added to every variance for numerical safety,
	// scaled by the largest feature variance (default 1e-9, the
	// scikit-learn convention).
	VarSmoothing float64
}

func (o Options) withDefaults() Options {
	if o.VarSmoothing <= 0 {
		o.VarSmoothing = 1e-9
	}
	return o
}

// Model is a fitted Gaussian naive Bayes classifier.
type Model struct {
	// Classes is the class count.
	Classes int
	// Features is the feature count.
	Features int
	// Mean is row-major Classes×Features.
	Mean []float64
	// Var is row-major Classes×Features (smoothed).
	Var []float64
	// LogPrior has one entry per class.
	LogPrior []float64
}

// TrainOn fits the model in one pass over any source of rows — the
// one driver local and distributed fits share: a single countPass
// reduction (per-class count, sum and sum-of-squares, merged in
// canonical order so the model is identical for any worker or shard
// count), then the closed form. Labels must be integers in
// [0, classes). ctx cancels the counting scan within one data block.
func TrainOn(ctx context.Context, src fit.Source, classes int, opts Options) (*Model, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	acc, _, err := fit.Reduce(ctx, src, countPass, countArg{Classes: classes})
	if err != nil {
		return nil, err
	}
	n, d := src.Dims()
	m := &Model{
		Classes:  classes,
		Features: d,
		Mean:     make([]float64, classes*d),
		Var:      make([]float64, classes*d),
		LogPrior: make([]float64, classes),
	}
	counts, sum, sumSq := acc.Counts, acc.Sum, acc.SumSq
	var maxVar float64
	for c := 0; c < classes; c++ {
		if counts[c] == 0 {
			return nil, fmt.Errorf("bayes: class %d has no examples", c)
		}
		m.LogPrior[c] = math.Log(counts[c] / float64(n))
		base := c * d
		for j := 0; j < d; j++ {
			mean := sum[base+j] / counts[c]
			variance := sumSq[base+j]/counts[c] - mean*mean
			if variance < 0 {
				variance = 0 // numerical floor
			}
			m.Mean[base+j] = mean
			m.Var[base+j] = variance
			if variance > maxVar {
				maxVar = variance
			}
		}
	}
	eps := o.VarSmoothing * math.Max(maxVar, 1e-12)
	for i := range m.Var {
		m.Var[i] += eps
	}
	return m, nil
}

// CountPartial is one merge group's (or block's) share of the class
// statistics — the pass's mergeable state. Fields are exported for
// gob.
type CountPartial struct {
	Counts, Sum, SumSq []float64
}

// countArg is the bayes/counts pass's argument.
type countArg struct{ Classes int }

// countPass is naive Bayes's single data pass.
var countPass = fit.Declare("bayes/counts", func(sh *fit.Shard, a countArg) (exec.Aggregate[*CountPartial], error) {
	y, err := sh.Classes(a.Classes)
	if err != nil {
		return exec.Aggregate[*CountPartial]{}, err
	}
	k, d := a.Classes, sh.Cols
	return exec.Aggregate[*CountPartial]{
		Name: "bayes moments",
		Alloc: func() *CountPartial {
			return &CountPartial{Counts: make([]float64, k), Sum: make([]float64, k*d), SumSq: make([]float64, k*d)}
		},
		Reset: func(p *CountPartial) {
			clear(p.Counts)
			clear(p.Sum)
			clear(p.SumSq)
		},
		Block: exec.EachRow(d, func(p *CountPartial, i int, row []float64) {
			c := y[i]
			p.Counts[c]++
			base := c * d
			for j, v := range row {
				p.Sum[base+j] += v
				p.SumSq[base+j] += v * v
			}
		}),
		Merge: func(dst, src *CountPartial) {
			blas.Axpy(1, src.Counts, dst.Counts)
			blas.Axpy(1, src.Sum, dst.Sum)
			blas.Axpy(1, src.SumSq, dst.SumSq)
		},
	}, nil
})

// LogScores writes per-class joint log-likelihoods into dst
// (length Classes).
func (m *Model) LogScores(row []float64, dst []float64) {
	if len(row) != m.Features || len(dst) != m.Classes {
		panic(fmt.Sprintf("bayes: shapes row=%d dst=%d model=(%d,%d)", len(row), len(dst), m.Features, m.Classes))
	}
	for c := 0; c < m.Classes; c++ {
		base := c * m.Features
		s := m.LogPrior[c]
		for j, v := range row {
			diff := v - m.Mean[base+j]
			s += -0.5 * (math.Log(2*math.Pi*m.Var[base+j]) + diff*diff/m.Var[base+j])
		}
		dst[c] = s
	}
}

// Predict returns the maximum-a-posteriori class.
func (m *Model) Predict(row []float64) int {
	scores := make([]float64, m.Classes)
	m.LogScores(row, scores)
	best, bestC := math.Inf(-1), 0
	for c, s := range scores {
		if s > best {
			best, bestC = s, c
		}
	}
	return bestC
}

// Accuracy scores the model over a labelled matrix (one scan).
func (m *Model) Accuracy(x *mat.Dense, y []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	scores := make([]float64, m.Classes)
	correct := 0
	x.ForEachRow(func(i int, row []float64) {
		m.LogScores(row, scores)
		best, bestC := math.Inf(-1), 0
		for c, s := range scores {
			if s > best {
				best, bestC = s, c
			}
		}
		if bestC == y[i] {
			correct++
		}
	})
	return float64(correct) / float64(x.Rows())
}
