// Package preprocess provides feature scaling fitted in single
// streaming passes, so preprocessing a memory-mapped dataset costs
// exactly one scan — the same currency every other M3 stage is priced
// in.
//
// The fitting scans run blocked on the shared chunked-execution layer
// (internal/exec): each block accumulates its own moments (Welford) or
// extrema, and per-block partials merge in ascending block order with
// the parallel-moments combine of Chan et al. — so fitted scalers are
// bit-identical for every worker count and every storage backend.
package preprocess

import (
	"context"
	"fmt"
	"math"

	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Options configures a fitting scan.
type Options struct {
	// FitOptions carries the shared training surface; only Workers is
	// consulted (<= 0: engine hint, then NumCPU).
	fit.FitOptions
}

// StandardScaler centers features to zero mean and unit variance.
type StandardScaler struct {
	// Mean and Std are per-feature statistics; Std entries are
	// floored at a small epsilon so constant features map to zero.
	Mean []float64
	Std  []float64
}

// Moments is one merge group's (or block's) share of the per-feature
// running statistics (Welford within the block, Chan-style combine
// across blocks) — the standard-scaler pass's mergeable state. Fields
// are exported for gob.
type Moments struct {
	Count float64
	Mean  []float64
	M2    []float64
}

// momentsPass is the standard scaler's single data pass. The merge is
// the parallel-variance combine (Chan, Golub & LeVeque): exact for
// counts, and deterministic under the fixed merge order.
var momentsPass = fit.Declare("moments", func(sh *fit.Shard, _ struct{}) (exec.Aggregate[*Moments], error) {
	d := sh.Cols
	return exec.Aggregate[*Moments]{
		Name:  "scaler moments",
		Alloc: func() *Moments { return &Moments{Mean: make([]float64, d), M2: make([]float64, d)} },
		Reset: func(m *Moments) {
			m.Count = 0
			clear(m.Mean)
			clear(m.M2)
		},
		Block: exec.EachRow(d, func(m *Moments, _ int, row []float64) {
			m.Count++
			for j, v := range row {
				delta := v - m.Mean[j]
				m.Mean[j] += delta / m.Count
				m.M2[j] += delta * (v - m.Mean[j])
			}
		}),
		Merge: func(dst, src *Moments) {
			if src.Count == 0 {
				return
			}
			if dst.Count == 0 {
				dst.Count = src.Count
				copy(dst.Mean, src.Mean)
				copy(dst.M2, src.M2)
				return
			}
			n := dst.Count + src.Count
			for j := range dst.Mean {
				delta := src.Mean[j] - dst.Mean[j]
				dst.Mean[j] += delta * src.Count / n
				dst.M2[j] += src.M2[j] + delta*delta*dst.Count*src.Count/n
			}
			dst.Count = n
		},
	}, nil
})

// FitStandardOn computes per-feature mean and standard deviation in
// one blocked scan of any source of rows (per-block Welford,
// numerically stable for long streams; block partials merge in
// ascending block order) — the one driver local and distributed fits
// share. ctx cancels the scan within one data block.
func FitStandardOn(ctx context.Context, src fit.Source) (*StandardScaler, error) {
	if n, _ := src.Dims(); n < 2 {
		return nil, fmt.Errorf("preprocess: need >= 2 rows, got %d", n)
	}
	acc, _, err := fit.Reduce(ctx, src, momentsPass, struct{}{})
	if err != nil {
		return nil, err
	}
	std := make([]float64, len(acc.Mean))
	for j := range std {
		std[j] = math.Sqrt(acc.M2[j] / acc.Count)
		if std[j] < 1e-12 {
			std[j] = 1 // constant feature: leave centered at zero
		}
	}
	return &StandardScaler{Mean: acc.Mean, Std: std}, nil
}

// InCols is the row width the scaler consumes. With OutCols and
// BlockKernel it makes a fitted scaler a fusable pipeline stage — the
// kernel a fused scan applies between the block read and the consumer,
// locally and on a shard worker alike.
func (s *StandardScaler) InCols() int { return len(s.Mean) }

// OutCols is the row width the scaler produces.
func (s *StandardScaler) OutCols() int { return len(s.Mean) }

// BlockKernel returns a fresh per-worker standardization kernel: no
// allocation beyond the caller's destination row.
func (s *StandardScaler) BlockKernel() exec.RowKernel {
	return func(dst, src []float64) []float64 {
		copy(dst, src)
		s.TransformRow(dst)
		return dst
	}
}

// TransformRow standardizes one row in place.
func (s *StandardScaler) TransformRow(row []float64) {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("preprocess: row has %d features, scaler has %d", len(row), len(s.Mean)))
	}
	for j := range row {
		row[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
}

// Transform standardizes every row of a writable matrix in place
// (one scan).
func (s *StandardScaler) Transform(x *mat.Dense) error {
	_, d := x.Dims()
	if d != len(s.Mean) {
		return fmt.Errorf("preprocess: matrix has %d features, scaler has %d", d, len(s.Mean))
	}
	if !x.Store().Writable() {
		return fmt.Errorf("preprocess: matrix store is read-only")
	}
	x.ForEachRow(func(i int, row []float64) {
		s.TransformRow(row)
	})
	return nil
}

// MinMaxScaler maps features into [0, 1] by observed range.
type MinMaxScaler struct {
	// Min and Range are per-feature; Range entries are floored so
	// constant features map to zero.
	Min   []float64
	Range []float64
}

// Extrema is one merge group's (or block's) per-feature minima and
// maxima — the min-max pass's mergeable state. Fields are exported for
// gob.
type Extrema struct {
	Lo, Hi []float64
}

// extremaPass is the min-max scaler's single data pass (min and max
// are exactly associative, so any merge order gives the same bits).
var extremaPass = fit.Declare("extrema", func(sh *fit.Shard, _ struct{}) (exec.Aggregate[*Extrema], error) {
	d := sh.Cols
	// An extremum's zero is the opposite infinity, not 0.
	reset := func(e *Extrema) {
		for j := range e.Lo {
			e.Lo[j] = math.Inf(1)
			e.Hi[j] = math.Inf(-1)
		}
	}
	return exec.Aggregate[*Extrema]{
		Name: "minmax extrema",
		Alloc: func() *Extrema {
			e := &Extrema{Lo: make([]float64, d), Hi: make([]float64, d)}
			reset(e)
			return e
		},
		Reset: reset,
		Block: exec.EachRow(d, func(e *Extrema, _ int, row []float64) {
			for j, v := range row {
				if v < e.Lo[j] {
					e.Lo[j] = v
				}
				if v > e.Hi[j] {
					e.Hi[j] = v
				}
			}
		}),
		Merge: func(dst, src *Extrema) {
			for j := range dst.Lo {
				if src.Lo[j] < dst.Lo[j] {
					dst.Lo[j] = src.Lo[j]
				}
				if src.Hi[j] > dst.Hi[j] {
					dst.Hi[j] = src.Hi[j]
				}
			}
		},
	}, nil
})

// FitMinMaxOn computes per-feature minima and ranges in one blocked
// scan of any source of rows — the one driver local and distributed
// fits share. ctx cancels the scan within one data block.
func FitMinMaxOn(ctx context.Context, src fit.Source) (*MinMaxScaler, error) {
	if n, _ := src.Dims(); n < 1 {
		return nil, fmt.Errorf("preprocess: empty matrix")
	}
	acc, _, err := fit.Reduce(ctx, src, extremaPass, struct{}{})
	if err != nil {
		return nil, err
	}
	rng := make([]float64, len(acc.Lo))
	for j := range rng {
		rng[j] = acc.Hi[j] - acc.Lo[j]
		if rng[j] < 1e-12 {
			rng[j] = 1
		}
	}
	return &MinMaxScaler{Min: acc.Lo, Range: rng}, nil
}

// InCols is the row width the scaler consumes.
func (s *MinMaxScaler) InCols() int { return len(s.Min) }

// OutCols is the row width the scaler produces.
func (s *MinMaxScaler) OutCols() int { return len(s.Min) }

// BlockKernel returns a fresh per-worker rescaling kernel: no
// allocation beyond the caller's destination row.
func (s *MinMaxScaler) BlockKernel() exec.RowKernel {
	return func(dst, src []float64) []float64 {
		copy(dst, src)
		s.TransformRow(dst)
		return dst
	}
}

// TransformRow rescales one row in place.
func (s *MinMaxScaler) TransformRow(row []float64) {
	if len(row) != len(s.Min) {
		panic(fmt.Sprintf("preprocess: row has %d features, scaler has %d", len(row), len(s.Min)))
	}
	for j := range row {
		row[j] = (row[j] - s.Min[j]) / s.Range[j]
	}
}
