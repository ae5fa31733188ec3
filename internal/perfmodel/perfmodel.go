// Package perfmodel fits and evaluates the piecewise-linear runtime
// model behind Figure 1a: runtime grows linearly with dataset size in
// two regimes — a shallow slope while the data fits in RAM and a
// steeper slope once paging begins — with the knee at the machine's
// RAM size. It also implements the paper's §4 "ongoing work" goal of
// predicting runtime at unseen scales from a fitted model.
package perfmodel

import (
	"fmt"
	"math"
)

// Point is one (dataset size, runtime) measurement.
type Point struct {
	// SizeBytes is the dataset size.
	SizeBytes float64
	// Seconds is the measured runtime.
	Seconds float64
}

// Segment is one linear regime: Seconds ≈ Intercept + Slope×SizeBytes.
type Segment struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// N is the number of points in the segment.
	N int
}

// Eval returns the modelled runtime at size.
func (s Segment) Eval(size float64) float64 { return s.Intercept + s.Slope*size }

// Model is the two-regime piecewise-linear runtime model.
type Model struct {
	// KneeBytes separates the in-RAM and out-of-core regimes.
	KneeBytes float64
	// InRAM covers sizes <= KneeBytes.
	InRAM Segment
	// OutOfCore covers sizes > KneeBytes.
	OutOfCore Segment
}

// SlopeRatio is out-of-core slope / in-RAM slope — how much paging
// costs per byte. Returns +Inf when the in-RAM slope is zero.
func (m Model) SlopeRatio() float64 {
	if m.InRAM.Slope == 0 {
		return math.Inf(1)
	}
	return m.OutOfCore.Slope / m.InRAM.Slope
}

// Predict returns the modelled runtime at size, selecting the regime
// by the knee.
func (m Model) Predict(size float64) float64 {
	if size <= m.KneeBytes {
		return m.InRAM.Eval(size)
	}
	return m.OutOfCore.Eval(size)
}

// String summarizes the model.
func (m Model) String() string {
	return fmt.Sprintf("knee %.1f GB; in-RAM %.3g s/GB (R²=%.4f); out-of-core %.3g s/GB (R²=%.4f); slope ratio %.2f",
		m.KneeBytes/1e9, m.InRAM.Slope*1e9, m.InRAM.R2, m.OutOfCore.Slope*1e9, m.OutOfCore.R2, m.SlopeRatio())
}

// fitLine computes ordinary least squares over the points.
func fitLine(pts []Point) Segment {
	n := float64(len(pts))
	if len(pts) == 0 {
		return Segment{}
	}
	if len(pts) == 1 {
		return Segment{Intercept: pts[0].Seconds, R2: 1, N: 1}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.SizeBytes
		sy += p.Seconds
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p.SizeBytes-mx, p.Seconds-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	seg := Segment{N: len(pts)}
	if sxx == 0 {
		seg.Intercept = my
		seg.R2 = 1
		return seg
	}
	seg.Slope = sxy / sxx
	seg.Intercept = my - seg.Slope*mx
	if syy == 0 {
		seg.R2 = 1
	} else {
		ssRes := syy - seg.Slope*sxy
		seg.R2 = 1 - ssRes/syy
	}
	return seg
}

// Fit builds the two-regime model with a known knee (e.g. the
// machine's RAM size, 32 GB in the paper). Points at the knee belong
// to the in-RAM regime. It requires at least one point per regime.
func Fit(points []Point, kneeBytes float64) (Model, error) {
	if kneeBytes <= 0 {
		return Model{}, fmt.Errorf("perfmodel: non-positive knee %v", kneeBytes)
	}
	var lo, hi []Point
	for _, p := range points {
		if p.SizeBytes <= kneeBytes {
			lo = append(lo, p)
		} else {
			hi = append(hi, p)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		return Model{}, fmt.Errorf("perfmodel: need points on both sides of the knee (%d in-RAM, %d out-of-core)", len(lo), len(hi))
	}
	return Model{KneeBytes: kneeBytes, InRAM: fitLine(lo), OutOfCore: fitLine(hi)}, nil
}
