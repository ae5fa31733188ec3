package blas

import "math"

// The squared-distance reduction is canonical: every implementation
// below produces the same bits for the same inputs, so a fit or a
// search is identical on every backend, worker count, shard count and
// host. Element i accumulates into lane i mod 8, each lane in
// ascending i; a product is rounded before it is added (never fused);
// the lanes reduce as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
//
// Every term is non-negative and rounding is monotone, so a partial
// sum taken between elements never exceeds the final one. That is what
// makes early abandon exact: SqDistBounded reduces the lanes after
// every sqDistCheck elements and stops once the partial sum is past
// the bound.
const sqDistCheck = 128

// SqDist returns the squared Euclidean distance between x and y.
// It panics on length mismatch.
func SqDist(x, y []float64) float64 { return SqDistBounded(x, y, math.Inf(1)) }

// SqDistBounded is SqDist for callers that only need distances up to
// bound. A result <= bound is exactly SqDist(x, y). A result > bound
// means SqDist(x, y) > bound as well, and is otherwise unspecified:
// the scan was abandoned at the first check that passed the bound. A
// NaN bound never abandons. It panics on length mismatch.
//
// With a NaN among the terms SqDist is NaN, which compares false both
// ways; callers here keep a candidate only on d < bound, which NaN and
// an abandoned scan both fail.
func SqDistBounded(x, y []float64, bound float64) float64 {
	if len(x) != len(y) {
		panic("blas: sqdist length mismatch")
	}
	return sqDist(x, y, bound)
}

// sqDistGeneric is the portable statement of the canonical reduction
// and the reference the assembly is tested against. The float64
// conversions forbid fusing the multiply into the add (arm64, ppc64,
// GOAMD64=v3).
func sqDistGeneric(x, y []float64, bound float64) float64 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	y = y[:len(x)] // equal lengths, restated where the compiler drops bounds checks for it
	for len(x) >= 8 {
		n := len(x) &^ 7
		if n > sqDistCheck {
			n = sqDistCheck
		}
		for xc, yc := x[:n], y[:n]; len(xc) >= 8 && len(yc) >= 8; xc, yc = xc[8:], yc[8:] {
			d0, d1, d2, d3 := xc[0]-yc[0], xc[1]-yc[1], xc[2]-yc[2], xc[3]-yc[3]
			d4, d5, d6, d7 := xc[4]-yc[4], xc[5]-yc[5], xc[6]-yc[6], xc[7]-yc[7]
			l0 += float64(d0 * d0)
			l1 += float64(d1 * d1)
			l2 += float64(d2 * d2)
			l3 += float64(d3 * d3)
			l4 += float64(d4 * d4)
			l5 += float64(d5 * d5)
			l6 += float64(d6 * d6)
			l7 += float64(d7 * d7)
		}
		x, y = x[n:], y[n:]
		if n == sqDistCheck {
			if s := ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)); s > bound {
				return s
			}
		}
	}
	y = y[:len(x)]
	switch len(x) {
	case 7:
		d := x[6] - y[6]
		l6 += float64(d * d)
		fallthrough
	case 6:
		d := x[5] - y[5]
		l5 += float64(d * d)
		fallthrough
	case 5:
		d := x[4] - y[4]
		l4 += float64(d * d)
		fallthrough
	case 4:
		d := x[3] - y[3]
		l3 += float64(d * d)
		fallthrough
	case 3:
		d := x[2] - y[2]
		l2 += float64(d * d)
		fallthrough
	case 2:
		d := x[1] - y[1]
		l1 += float64(d * d)
		fallthrough
	case 1:
		d := x[0] - y[0]
		l0 += float64(d * d)
	}
	return ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
}
