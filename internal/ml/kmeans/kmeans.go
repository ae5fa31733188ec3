// Package kmeans implements Lloyd's algorithm with k-means++
// initialization — the second of the paper's two evaluation workloads
// (10 iterations, 5 clusters in Figure 1b). Each iteration streams
// the (possibly memory-mapped) data matrix once: the assignment pass
// is a pure sequential scan, which is why k-means pages as well as
// logistic regression under M3.
//
// The algorithm is written against a DataPlane — the data-touching
// operations a fit needs. The two scanning ones (assignment pass,
// seeding pass) are declared passes that run over any fit.Source
// (SourcePlane); a plane adds where single rows and the sequential
// prefix walk live. Run wires the plane to a local matrix; a
// distributed coordinator wires it to sharded workers, and because
// every plane operation reproduces the local floating-point operation
// order exactly, both planes produce bit-identical results.
package kmeans

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

// Options configures a k-means run.
type Options struct {
	// FitOptions carries the shared training surface. Workers sizes
	// the pool for the init and assignment scans; Callback runs after
	// each Lloyd iteration with IterInfo{Iter, Value: inertia} and can
	// stop the run. Assignments, centroids and inertia are identical
	// for every worker count.
	fit.FitOptions
	// K is the number of clusters (required, >= 1).
	K int
	// MaxIterations bounds Lloyd iterations (default 100; the paper
	// runs exactly 10).
	MaxIterations int
	// Tol stops early when no assignment changes and centroid
	// movement falls below it (default 1e-9).
	Tol float64
	// Seed drives k-means++ sampling; runs are deterministic in it.
	Seed uint64
	// RandomInit selects uniform random initial centroids instead of
	// k-means++ (ablation baseline).
	RandomInit bool
	// InitCentroids, when non-nil, supplies explicit initial
	// centroids (K×D) and skips seeding entirely. Used to give M3
	// and the Spark baseline identical starting points.
	InitCentroids *mat.Dense
	// RunAllIterations disables early convergence so exactly
	// MaxIterations passes execute — the paper's fixed "10
	// iterations" protocol.
	RunAllIterations bool
}

func (o Options) withDefaults() (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("kmeans: K = %d, want >= 1", o.K)
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	return o, nil
}

// Result is a completed clustering.
type Result struct {
	// Centroids is a K×D heap matrix.
	Centroids *mat.Dense
	// Assignments maps each row to its cluster.
	Assignments []int
	// Inertia is the sum of squared distances to assigned centroids.
	Inertia float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether assignments stabilized before the
	// iteration budget ran out.
	Converged bool
	// Stall is the cumulative simulated paging stall in seconds
	// (zero on real backends).
	Stall float64
	// Scans counts full passes over the data matrix.
	Scans int
}

// AssignPartial is one merge group's (or block's) share of a Lloyd
// assignment pass — the pass's mergeable state. Fields are exported for
// gob.
type AssignPartial struct {
	Sums    []float64
	Counts  []int
	Inertia float64
	Changed int
}

// Scratch is a fit's row-indexed state, kept on the fit.Shard between
// passes: shard-local on a distributed worker, whole-matrix locally.
type Scratch struct {
	// Assignments maps each row to its cluster as of the last
	// assignment pass.
	Assignments []int
	// Dist is each row's squared distance to the nearest chosen
	// centroid during k-means++ seeding: +Inf before the first seeding
	// pass, nil when the fit never seeds.
	Dist []float64
}

// scratchOf returns the shard's k-means scratch, creating it on the
// fit's first pass.
func scratchOf(sh *fit.Shard) *Scratch {
	sc, ok := sh.Scratch.(*Scratch)
	if !ok {
		sc = &Scratch{Assignments: make([]int, sh.Rows)}
		sh.Scratch = sc
	}
	return sc
}

// assignArg is the kmeans/assign pass's argument: the flat K×D
// centroid block.
type assignArg struct {
	Centroids []float64
	K         int
}

// assignPass is one Lloyd assignment pass: nearest centroid per row,
// written to the scratch assignments (per-row disjoint), and the
// per-cluster sums, counts and inertia.
var assignPass = fit.Declare("kmeans/assign", func(sh *fit.Shard, a assignArg) (exec.Aggregate[*AssignPartial], error) {
	k, d := a.K, sh.Cols
	assignments, centroids := scratchOf(sh).Assignments, a.Centroids
	return exec.Aggregate[*AssignPartial]{
		Name:  "kmeans assign",
		Alloc: func() *AssignPartial { return &AssignPartial{Sums: make([]float64, k*d), Counts: make([]int, k)} },
		Reset: func(p *AssignPartial) {
			clear(p.Sums)
			clear(p.Counts)
			p.Inertia, p.Changed = 0, 0
		},
		Block: exec.EachRow(d, func(p *AssignPartial, i int, row []float64) {
			bestC, best := blas.NearestRow(row, k, d, centroids, d)
			if assignments[i] != bestC {
				p.Changed++
				assignments[i] = bestC
			}
			p.Inertia += best
			blas.Axpy(1, row, p.Sums[bestC*d:(bestC+1)*d])
			p.Counts[bestC]++
		}),
		Merge: func(dst, src *AssignPartial) {
			dst.Inertia += src.Inertia
			dst.Changed += src.Changed
			blas.Axpy(1, src.Sums, dst.Sums)
			for c, n := range src.Counts {
				dst.Counts[c] += n
			}
		},
	}, nil
})

// seedArg is the kmeans/seed pass's argument: the newest centroid.
type seedArg struct{ Prev []float64 }

// seedPass is one k-means++ seeding pass: tighten each row's scratch
// distance against the newest centroid (per-row disjoint) and total
// the probability mass.
var seedPass = fit.Declare("kmeans/seed", func(sh *fit.Shard, a seedArg) (exec.Aggregate[*float64], error) {
	sc := scratchOf(sh)
	if sc.Dist == nil {
		sc.Dist = make([]float64, sh.Rows)
		for i := range sc.Dist {
			sc.Dist[i] = math.Inf(1)
		}
	}
	dist, prev := sc.Dist, a.Prev
	return exec.Aggregate[*float64]{
		Name:  "kmeans++ seed",
		Alloc: func() *float64 { return new(float64) },
		Reset: func(mass *float64) { *mass = 0 },
		Block: exec.EachRow(sh.Cols, func(mass *float64, i int, row []float64) {
			if d2 := blas.SqDistBounded(row, prev, dist[i]); d2 < dist[i] {
				dist[i] = d2
			}
			*mass += dist[i]
		}),
		Merge: func(dst, src *float64) { *dst += *src },
	}, nil
})

// SamplePrefix walks dist in order, accumulating into acc, and returns
// the first index where the running sum reaches target. Shards chain
// the call — each passes the previous shard's final acc — so the
// distributed walk performs the identical sequential additions the
// local one does.
func SamplePrefix(dist []float64, acc, target float64) (chosen int, newAcc float64, found bool) {
	for i, d2 := range dist {
		acc += d2
		if acc >= target {
			return i, acc, true
		}
	}
	return 0, acc, false
}

// DataPlane is the data-touching surface of a k-means fit: everything
// RunPlane needs from the row set, local or distributed. A plane is
// per-fit — its shards own the fit's Scratch.
//
// Implementations must reproduce the local floating-point operation
// order exactly (grouped block reduction for the passes, sequential
// prefix walk for sampling) so that every plane yields bit-identical
// results.
type DataPlane interface {
	// Dims returns the global row and feature counts.
	Dims() (n, d int)
	// AssignPass runs one Lloyd assignment pass against the flat K×D
	// centroid block, updating the plane's assignments, and returns
	// the fully folded partial plus accumulated stall seconds.
	AssignPass(ctx context.Context, centroids []float64, k int) (*AssignPartial, float64, error)
	// SeedPass tightens the plane's k-means++ distances against the
	// newest centroid and returns the total mass plus stall seconds.
	SeedPass(ctx context.Context, prev []float64) (mass, stall float64, err error)
	// SamplePrefix returns the first global row index where the
	// running sum over the seeding distances reaches target (the last
	// row when the mass falls short, mirroring the local fallback).
	SamplePrefix(ctx context.Context, target float64) (int, error)
	// FetchRow copies global row i into dst and returns stall seconds.
	FetchRow(ctx context.Context, i int, dst []float64) (float64, error)
	// GatherAssignments returns the per-row cluster assignments in
	// global row order.
	GatherAssignments(ctx context.Context) ([]int, error)
}

// SourcePlane is the scanning half of a DataPlane over any source of
// rows: the two passes, reduced wherever the rows are. LocalPlane
// embeds it, and a cluster's shards run their passes through it.
type SourcePlane struct{ Src fit.Source }

// Dims implements DataPlane.
func (p SourcePlane) Dims() (int, int) { return p.Src.Dims() }

// AssignPass implements DataPlane.
func (p SourcePlane) AssignPass(ctx context.Context, centroids []float64, k int) (*AssignPartial, float64, error) {
	return fit.Reduce(ctx, p.Src, assignPass, assignArg{Centroids: centroids, K: k})
}

// SeedPass implements DataPlane.
func (p SourcePlane) SeedPass(ctx context.Context, prev []float64) (float64, float64, error) {
	mass, stall, err := fit.Reduce(ctx, p.Src, seedPass, seedArg{Prev: prev})
	if err != nil {
		return 0, 0, err
	}
	return *mass, stall, nil
}

// LocalPlane is the single-machine DataPlane over a matrix.
type LocalPlane struct {
	SourcePlane
	x *mat.Dense
}

// NewLocalPlane wraps x for a fit. workers <= 0 defers to the engine
// hint and then NumCPU.
func NewLocalPlane(x *mat.Dense, workers int) *LocalPlane {
	return &LocalPlane{SourcePlane: SourcePlane{Src: fit.NewLocal(x, nil, workers)}, x: x}
}

// SamplePrefix implements DataPlane.
func (p *LocalPlane) SamplePrefix(_ context.Context, target float64) (int, error) {
	chosen, _, found := SamplePrefix(scratchOf(p.Src.Shard()).Dist, 0, target)
	if !found {
		chosen = p.x.Rows() - 1
	}
	return chosen, nil
}

// FetchRow implements DataPlane.
func (p *LocalPlane) FetchRow(_ context.Context, i int, dst []float64) (float64, error) {
	row, stall := p.x.Row(i)
	copy(dst, row)
	return stall, nil
}

// GatherAssignments implements DataPlane.
func (p *LocalPlane) GatherAssignments(context.Context) ([]int, error) {
	return scratchOf(p.Src.Shard()).Assignments, nil
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) uniform() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Run clusters the rows of x into K groups. ctx cancels the run
// within one data block of the init or assignment scans; the error is
// then ctx.Err() and no result is returned.
func Run(ctx context.Context, x *mat.Dense, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return RunPlane(ctx, NewLocalPlane(x, o.Workers), opts)
}

// RunOn is Run over any source of rows, shaped like the other
// trainers' drivers: a source that is its own DataPlane (a cluster's
// shards) runs as one, and a source that exposes its matrix (a
// fit.Local, or a source wrapping one) gets a LocalPlane whose passes
// still run through the source.
func RunOn(ctx context.Context, src fit.Source, opts Options) (*Result, error) {
	var plane DataPlane
	switch s := src.(type) {
	case DataPlane:
		plane = s
	case interface{ Matrix() *mat.Dense }:
		plane = &LocalPlane{SourcePlane: SourcePlane{Src: src}, x: s.Matrix()}
	}
	if plane == nil {
		return nil, fmt.Errorf("kmeans: a %T is neither a data plane nor exposes its matrix", src)
	}
	return RunPlane(ctx, plane, opts)
}

// RunPlane clusters the plane's rows into K groups — the full Lloyd
// driver (init, iterate, converge) over any DataPlane. Run wires it to
// a local matrix; the distributed coordinator's shards are their own
// plane, and both produce bit-identical results because the plane
// contract fixes the floating-point operation order.
func RunPlane(ctx context.Context, plane DataPlane, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := fit.Canceled(ctx); err != nil {
		return nil, err
	}
	n, d := plane.Dims()
	if o.K > n {
		return nil, fmt.Errorf("kmeans: K = %d exceeds %d rows", o.K, n)
	}
	r := &rng{s: o.Seed ^ 0x9e3779b97f4a7c15}
	if r.s == 0 {
		r.s = 1
	}

	res := &Result{Centroids: mat.NewDense(o.K, d)}
	rowBuf := make([]float64, d)
	fetch := func(i, c int) error {
		stall, err := plane.FetchRow(ctx, i, rowBuf)
		if err != nil {
			return err
		}
		res.Stall += stall
		res.Stall += res.Centroids.SetRow(c, rowBuf)
		return nil
	}
	switch {
	case o.InitCentroids != nil:
		ik, id := o.InitCentroids.Dims()
		if ik != o.K || id != d {
			return nil, fmt.Errorf("kmeans: InitCentroids is %dx%d, want %dx%d", ik, id, o.K, d)
		}
		res.Centroids.CopyFrom(o.InitCentroids)
	case o.RandomInit:
		// K distinct random rows as centroids.
		seen := make(map[int]bool, o.K)
		for c := 0; c < o.K; c++ {
			i := r.intn(n)
			for seen[i] {
				i = r.intn(n)
			}
			seen[i] = true
			if err := fetch(i, c); err != nil {
				return nil, err
			}
		}
		res.Scans++ // counted as one pass worth of row touches
	default:
		// k-means++ (Arthur & Vassilvitskii 2007): each next centroid
		// is sampled with probability proportional to the squared
		// distance from the nearest chosen centroid. Costs one data
		// scan per centroid.
		if err := fetch(r.intn(n), 0); err != nil {
			return nil, err
		}
		for c := 1; c < o.K; c++ {
			mass, stall, err := plane.SeedPass(ctx, res.Centroids.RawRow(c-1))
			if err != nil {
				return nil, err
			}
			res.Stall += stall
			res.Scans++
			chosen, err := plane.SamplePrefix(ctx, r.uniform()*mass)
			if err != nil {
				return nil, err
			}
			if err := fetch(chosen, c); err != nil {
				return nil, err
			}
		}
	}

	newCentroid := make([]float64, d)
	centroids, ok := res.Centroids.Contiguous() // K×d heap matrix is always contiguous
	if !ok {
		return nil, fmt.Errorf("kmeans: internal: centroid matrix not contiguous")
	}
	callback := o.Hook("kmeans")
	finish := func() (*Result, error) {
		a, err := plane.GatherAssignments(ctx)
		if err != nil {
			return nil, err
		}
		res.Assignments = a
		return res, nil
	}

	for iter := 1; iter <= o.MaxIterations; iter++ {
		acc, stall, err := plane.AssignPass(ctx, centroids, o.K)
		if err != nil {
			return nil, err
		}
		res.Stall += stall
		res.Scans++
		res.Inertia = acc.Inertia
		res.Iterations = iter

		// Update pass: centroids are tiny, no data scan needed.
		move := 0.0
		for c := 0; c < o.K; c++ {
			if acc.Counts[c] == 0 {
				// Empty-cluster repair: respawn at a random row.
				stall, err := plane.FetchRow(ctx, r.intn(n), newCentroid)
				if err != nil {
					return nil, err
				}
				res.Stall += stall
			} else {
				copy(newCentroid, acc.Sums[c*d:(c+1)*d])
				blas.Scal(1/float64(acc.Counts[c]), newCentroid)
			}
			move += blas.SqDist(newCentroid, res.Centroids.RawRow(c))
			res.Centroids.SetRow(c, newCentroid)
		}

		if callback != nil && !callback(optimize.IterInfo{Iter: iter, Value: acc.Inertia}) {
			return finish()
		}
		if acc.Changed == 0 && move < o.Tol {
			res.Converged = true
			if !o.RunAllIterations {
				return finish()
			}
		}
		// First iteration always counts as changed (assignments
		// start at zero); don't let that block convergence later.
	}
	return finish()
}

// initRandom picks K distinct random rows as centroids (used by the
// mini-batch variant, which runs on a local matrix only).
func initRandom(x *mat.Dense, centroids *mat.Dense, r *rng) (stall float64) {
	n, _ := x.Dims()
	k, _ := centroids.Dims()
	seen := make(map[int]bool, k)
	for c := 0; c < k; c++ {
		i := r.intn(n)
		for seen[i] {
			i = r.intn(n)
		}
		seen[i] = true
		row, s := x.Row(i)
		stall += s
		stall += centroids.SetRow(c, row)
	}
	return stall
}

// Predict returns the nearest-centroid assignment for a single row.
func (r *Result) Predict(row []float64) int {
	bestC, _ := nearestCentroid(row, r.Centroids)
	return bestC
}

// nearestCentroid is blas.NearestRow over a centroid matrix: the one
// nearest-centroid rule (lowest index on ties, distance-bounded scan)
// behind Predict and Inertia. Like RawRow it
// panics on a fused view, the only matrix that is not contiguous.
func nearestCentroid(row []float64, centroids *mat.Dense) (int, float64) {
	c, ok := centroids.Contiguous()
	if !ok {
		panic("kmeans: centroids must be a materialized matrix")
	}
	k, d := centroids.Dims()
	return blas.NearestRow(row, k, d, c, d)
}

// Inertia computes the clustering cost of arbitrary data under this
// result's centroids (one scan).
func Inertia(x *mat.Dense, centroids *mat.Dense) float64 {
	var total float64
	x.ForEachRow(func(i int, row []float64) {
		_, best := nearestCentroid(row, centroids)
		total += best
	})
	return total
}
