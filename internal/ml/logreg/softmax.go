package logreg

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

// SoftmaxObjective is the multinomial (softmax) generalization used
// for the 10-class digit problem, over a source of rows. Parameters
// are a row-major K×D weight block followed by K biases when intercept
// is enabled. Like ParallelObjective, each Eval is one pass reduction
// wherever the rows are.
type SoftmaxObjective struct {
	src       fit.Source
	n, d      int
	classes   int
	lambda    float64
	intercept bool
	// Ctx, when non-nil, cancels data scans at block granularity.
	Ctx context.Context
	// Stall accumulates simulated paging stall seconds.
	Stall float64
	// Scans counts full data passes.
	Scans int
	// err is the first reduction error (see ParallelObjective).
	err error
}

// newSoftmaxObjective validates the options and the source's labels.
func newSoftmaxObjective(src fit.Source, classes int, lambda float64, intercept bool) (*SoftmaxObjective, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("logreg: negative lambda %v", lambda)
	}
	if _, err := src.Shard().Classes(classes); err != nil {
		return nil, err
	}
	o := &SoftmaxObjective{src: src, classes: classes, lambda: lambda, intercept: intercept}
	o.n, o.d = src.Dims()
	return o, nil
}

// Dim returns K*D (+K with intercept).
func (o *SoftmaxObjective) Dim() int {
	d := o.classes * o.d
	if o.intercept {
		d += o.classes
	}
	return d
}

// SoftmaxPartial is one merge group's (or block's) share of the
// cross-entropy loss and gradient — the pass's mergeable state. The
// scores scratch is per state and unexported, so gob ships only the
// aggregate fields.
type SoftmaxPartial struct {
	Loss   float64
	Grad   []float64
	scores []float64
}

// softmaxArg is the softmax/grad pass's argument.
type softmaxArg struct {
	Params    []float64
	Classes   int
	Intercept bool
}

// softmaxPass is the one data pass of softmax regression: the summed
// cross-entropy and gradient at Params (row-major K×D weights, then K
// biases with an intercept).
var softmaxPass = fit.Declare("softmax/grad", func(sh *fit.Shard, a softmaxArg) (exec.Aggregate[*SoftmaxPartial], error) {
	y, err := sh.Classes(a.Classes)
	if err != nil {
		return exec.Aggregate[*SoftmaxPartial]{}, err
	}
	d, k := sh.Cols, a.Classes
	wAll := a.Params[:k*d]
	var bias []float64
	dim := k * d
	if a.Intercept {
		bias = a.Params[k*d : k*d+k]
		dim += k
	}
	return exec.Aggregate[*SoftmaxPartial]{
		Name: "softmax grad",
		Alloc: func() *SoftmaxPartial {
			return &SoftmaxPartial{Grad: make([]float64, dim), scores: make([]float64, k)}
		},
		Reset: func(p *SoftmaxPartial) {
			p.Loss = 0
			clear(p.Grad)
			clear(p.scores)
		},
		Block: exec.EachRow(d, func(p *SoftmaxPartial, i int, row []float64) {
			gw := p.Grad[:k*d]
			// scores_c = w_c · row + b_c
			maxScore := math.Inf(-1)
			for c := 0; c < k; c++ {
				s := blas.Dot(wAll[c*d:(c+1)*d], row)
				if bias != nil {
					s += bias[c]
				}
				p.scores[c] = s
				if s > maxScore {
					maxScore = s
				}
			}
			// log-sum-exp with max shift
			var sum float64
			for c := 0; c < k; c++ {
				p.scores[c] = math.Exp(p.scores[c] - maxScore)
				sum += p.scores[c]
			}
			logSum := math.Log(sum) + maxScore
			yi := y[i]
			// loss_i = logSum - score_{yi}; recover shifted score.
			p.Loss += logSum - (math.Log(p.scores[yi]) + maxScore)
			inv := 1 / sum
			for c := 0; c < k; c++ {
				prob := p.scores[c] * inv
				diff := prob
				if c == yi {
					diff -= 1
				}
				if diff != 0 {
					blas.Axpy(diff, row, gw[c*d:(c+1)*d])
					if bias != nil {
						p.Grad[k*d+c] += diff
					}
				}
			}
		}),
		Merge: func(dst, src *SoftmaxPartial) {
			dst.Loss += src.Loss
			blas.Axpy(1, src.Grad, dst.Grad)
		},
	}, nil
})

// Eval computes mean cross-entropy plus L2 penalty with one pass over
// the source.
func (o *SoftmaxObjective) Eval(params, grad []float64) float64 {
	if o.err != nil {
		return math.NaN()
	}
	d, k := o.d, o.classes
	total, stall, err := fit.Reduce(o.Ctx, o.src, softmaxPass,
		softmaxArg{Params: params, Classes: k, Intercept: o.intercept})
	o.Stall += stall
	o.Scans++
	if err != nil {
		o.err = err
		return math.NaN()
	}
	wAll := params[:k*d]
	blas.Fill(grad, 0)
	gw := grad[:k*d]
	nf := float64(o.n)
	loss := total.Loss / nf
	blas.AddScaled(gw, gw, 1/nf, total.Grad[:k*d])
	if o.intercept {
		gb := grad[k*d : k*d+k]
		blas.AddScaled(gb, gb, 1/nf, total.Grad[k*d:k*d+k])
	}
	loss += 0.5 * o.lambda * blas.Dot(wAll, wAll)
	blas.Axpy(o.lambda, wAll, gw)
	return loss
}

// SoftmaxModel is a trained multiclass classifier.
type SoftmaxModel struct {
	// Weights is row-major K×D.
	Weights []float64
	// Bias has one entry per class (nil without intercept).
	Bias []float64
	// Classes is K.
	Classes int
	// Features is D.
	Features int
	// Result is the optimizer outcome.
	Result optimize.Result
}

// TrainSoftmaxOn fits a K-class softmax regression model with L-BFGS
// on blocked, worker-pooled scans of any source of rows — the one
// driver local and distributed fits share. The source's labels must
// be class indices in [0, classes). ctx cancels the fit within one
// data block.
func TrainSoftmaxOn(ctx context.Context, src fit.Source, classes int, opts Options) (*SoftmaxModel, error) {
	o := opts.withDefaults()
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	obj, err := newSoftmaxObjective(src, classes, o.Lambda, !o.NoIntercept)
	if err != nil {
		return nil, err
	}
	obj.Ctx = ctx
	res, err := optimize.LBFGS(ctx, obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: o.MaxIterations,
		GradTol:       o.GradTol,
		Callback:      o.Hook("softmax"),
	})
	if obj.err != nil {
		return nil, obj.err
	}
	if err != nil {
		return nil, err
	}
	d := obj.d
	m := &SoftmaxModel{
		Weights: res.X[:classes*d], Classes: classes, Features: d, Result: res,
	}
	if !o.NoIntercept {
		m.Bias = res.X[classes*d : classes*d+classes]
	}
	return m, nil
}

// Scores writes per-class raw scores for row into dst (length K).
func (m *SoftmaxModel) Scores(row []float64, dst []float64) {
	for c := 0; c < m.Classes; c++ {
		s := blas.Dot(m.Weights[c*m.Features:(c+1)*m.Features], row)
		if m.Bias != nil {
			s += m.Bias[c]
		}
		dst[c] = s
	}
}

// Predict returns the argmax class for row.
func (m *SoftmaxModel) Predict(row []float64) int {
	best, bestC := math.Inf(-1), 0
	for c := 0; c < m.Classes; c++ {
		s := blas.Dot(m.Weights[c*m.Features:(c+1)*m.Features], row)
		if m.Bias != nil {
			s += m.Bias[c]
		}
		if s > best {
			best, bestC = s, c
		}
	}
	return bestC
}

// Accuracy scores the model on a labelled matrix.
func (m *SoftmaxModel) Accuracy(x *mat.Dense, y []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	correct := 0
	x.ForEachRow(func(i int, row []float64) {
		if m.Predict(row) == y[i] {
			correct++
		}
	})
	return float64(correct) / float64(x.Rows())
}
