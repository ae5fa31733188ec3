package kmeans

import (
	"context"
	"fmt"

	"m3/internal/blas"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/optimize"
)

// MiniBatchOptions configures mini-batch k-means (Sculley, WWW 2010),
// the variant that matters most out-of-core: each step touches only
// BatchSize rows instead of the whole matrix, trading a little
// clustering quality for an order-of-magnitude less paging.
type MiniBatchOptions struct {
	// FitOptions carries the shared training surface. Workers applies
	// to the final full assignment pass (the sequential mini-batch
	// updates are inherently order-dependent); Callback runs after
	// each step with IterInfo{Iter: step}.
	fit.FitOptions
	// K is the cluster count (required).
	K int
	// BatchSize rows per step (default 256).
	BatchSize int
	// Steps is the number of mini-batch updates (default 100).
	Steps int
	// Seed drives batch sampling and initialization.
	Seed uint64
	// InitCentroids optionally fixes the starting centroids (K×D);
	// otherwise K distinct random rows are used.
	InitCentroids *mat.Dense
}

func (o MiniBatchOptions) withDefaults() (MiniBatchOptions, error) {
	if o.K < 1 {
		return o, fmt.Errorf("kmeans: K = %d, want >= 1", o.K)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Steps <= 0 {
		o.Steps = 100
	}
	return o, nil
}

// MiniBatch runs mini-batch k-means. Batches are sampled as
// contiguous row windows at random offsets, so each step is a short
// sequential scan — random enough to be unbiased across steps,
// sequential enough to page well under M3. ctx cancels between steps
// and within one block of the final assignment pass.
func MiniBatch(ctx context.Context, x *mat.Dense, opts MiniBatchOptions) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	n, d := x.Dims()
	if o.K > n {
		return nil, fmt.Errorf("kmeans: K = %d exceeds %d rows", o.K, n)
	}
	if o.BatchSize > n {
		o.BatchSize = n
	}
	r := &rng{s: o.Seed ^ 0xa0761d6478bd642f}
	if r.s == 0 {
		r.s = 1
	}

	res := &Result{
		Centroids:   mat.NewDense(o.K, d),
		Assignments: make([]int, n),
	}
	switch {
	case o.InitCentroids != nil:
		ik, id := o.InitCentroids.Dims()
		if ik != o.K || id != d {
			return nil, fmt.Errorf("kmeans: InitCentroids is %dx%d, want %dx%d", ik, id, o.K, d)
		}
		res.Centroids.CopyFrom(o.InitCentroids)
	default:
		res.Stall += initRandom(x, res.Centroids, r)
	}

	// One flat view of the centroids for both the steps, which update
	// them in place through it, and the final pass.
	centroids, ok := res.Centroids.Contiguous() // K×d heap matrix is always contiguous
	if !ok {
		return nil, fmt.Errorf("kmeans: internal: centroid matrix not contiguous")
	}

	// Per-centroid counts drive the decaying per-center learning
	// rate η = 1/count (Sculley's update).
	counts := make([]float64, o.K)
	callback := o.Hook("minibatch-kmeans")

	for step := 0; step < o.Steps; step++ {
		if err := fit.Canceled(ctx); err != nil {
			return nil, err
		}
		start := 0
		if n > o.BatchSize {
			start = r.intn(n - o.BatchSize + 1)
		}
		batch := x.RowWindow(start, start+o.BatchSize)
		stall := batch.ForEachRow(func(bi int, row []float64) {
			bestC, _ := blas.NearestRow(row, o.K, d, centroids, d)
			counts[bestC]++
			eta := 1 / counts[bestC]
			// centroid ← (1-η)centroid + η·row
			center := res.Centroids.RawRow(bestC)
			for j := range center {
				center[j] += eta * (row[j] - center[j])
			}
		})
		res.Stall += stall
		res.Iterations = step + 1
		if callback != nil && !callback(optimize.IterInfo{Iter: step + 1}) {
			break
		}
	}
	// Scans: mini-batch touched Iterations×BatchSize rows ≈ this many
	// full passes (rounded up for reporting; Iterations < Steps when
	// the callback stopped early).
	res.Scans = (res.Iterations*o.BatchSize + n - 1) / n

	// Final assignment pass for labels and inertia: one blocked scan
	// on the shared execution layer (assignments are per-row disjoint,
	// per-block inertia partials reduce in block order).
	inertia, stall, err := exec.ReduceRows(x.ScanCtx(ctx, o.Workers).Named("kmeans inertia"),
		func() *float64 { return new(float64) },
		func(sum *float64, i int, row []float64) {
			bestC, best := blas.NearestRow(row, o.K, d, centroids, d)
			res.Assignments[i] = bestC
			*sum += best
		},
		func(dst, src *float64) { *dst += *src })
	if err != nil {
		return nil, err
	}
	res.Inertia = *inertia
	res.Stall += stall
	res.Scans++
	return res, nil
}
