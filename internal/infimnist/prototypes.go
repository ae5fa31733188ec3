// Package infimnist generates an unbounded, deterministic stream of
// MNIST-like digit images, standing in for the Infimnist dataset the
// paper trains on (28×28 grayscale, 784 features per image, digits
// 0–9 produced by pseudo-random deformations of base images).
//
// The paper uses Infimnist purely as a large dense numeric workload
// ("we are primarily interested in runtimes"), so what this package
// preserves is exactly what the experiments need: shape (N×784
// float64), class structure (10 separable digit classes so logistic
// regression and k-means do meaningful work), determinism (image i is
// a pure function of seed and i), and unbounded supply.
package infimnist

import (
	"math"
	"sync"
)

// Side is the image edge length in pixels.
const Side = 28

// Features is the number of pixels per image (28×28 = 784, matching
// the paper's 6272 bytes per image at 8 bytes per value).
const Features = Side * Side

// Classes is the number of digit classes.
const Classes = 10

type point struct{ x, y float64 }

// stroke is a polyline in the unit square.
type stroke []point

// arc approximates an elliptical arc with a polyline. Angles are in
// radians; n segments.
func arc(cx, cy, rx, ry, a0, a1 float64, n int) stroke {
	s := make(stroke, n+1)
	for i := 0; i <= n; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(n)
		s[i] = point{cx + rx*math.Cos(a), cy + ry*math.Sin(a)}
	}
	return s
}

func line(x0, y0, x1, y1 float64) stroke {
	return stroke{{x0, y0}, {x1, y1}}
}

// digitStrokes defines each digit as a set of strokes in the unit
// square, y growing downward (like raster order).
var digitStrokes = [Classes][]stroke{
	// 0: full ellipse
	{arc(0.5, 0.5, 0.26, 0.36, 0, 2*math.Pi, 24)},
	// 1: vertical bar with a small flag and base
	{
		line(0.52, 0.14, 0.52, 0.86),
		line(0.38, 0.28, 0.52, 0.14),
		line(0.38, 0.86, 0.66, 0.86),
	},
	// 2: open top arc, diagonal, bottom bar
	{
		arc(0.5, 0.32, 0.24, 0.18, math.Pi, 2.25*math.Pi, 12),
		line(0.70, 0.42, 0.28, 0.84),
		line(0.28, 0.84, 0.74, 0.84),
	},
	// 3: two right-facing half-ellipses
	{
		arc(0.46, 0.32, 0.24, 0.18, 1.25*math.Pi, 2.6*math.Pi, 12),
		arc(0.46, 0.68, 0.26, 0.19, 1.45*math.Pi, 2.8*math.Pi, 12),
	},
	// 4: diagonal, horizontal, vertical
	{
		line(0.62, 0.12, 0.24, 0.62),
		line(0.24, 0.62, 0.80, 0.62),
		line(0.62, 0.12, 0.62, 0.88),
	},
	// 5: top bar, upper-left vertical, lower bowl
	{
		line(0.72, 0.14, 0.32, 0.14),
		line(0.32, 0.14, 0.30, 0.46),
		arc(0.48, 0.64, 0.24, 0.22, 1.35*math.Pi, 2.75*math.Pi, 14),
	},
	// 6: sweeping left curve into a lower loop
	{
		arc(0.56, 0.40, 0.26, 0.30, 0.75*math.Pi, 1.5*math.Pi, 10),
		arc(0.50, 0.66, 0.20, 0.20, 0, 2*math.Pi, 18),
	},
	// 7: top bar and steep diagonal
	{
		line(0.26, 0.16, 0.76, 0.16),
		line(0.76, 0.16, 0.42, 0.86),
	},
	// 8: stacked loops
	{
		arc(0.5, 0.32, 0.20, 0.17, 0, 2*math.Pi, 18),
		arc(0.5, 0.68, 0.23, 0.20, 0, 2*math.Pi, 18),
	},
	// 9: upper loop with a tail
	{
		arc(0.5, 0.36, 0.21, 0.20, 0, 2*math.Pi, 18),
		line(0.70, 0.40, 0.60, 0.86),
	},
}

// strokeWidth is the half-thickness of a stroke in unit coordinates;
// ink fades smoothly to nothing over feather beyond it.
const (
	strokeWidth = 0.055
	feather     = 0.035
	inkReach    = strokeWidth + feather
)

// segment is one polyline segment ab, stored as the operands the
// point-to-segment distance needs: a, b−a and |b−a|².
type segment struct{ ax, ay, abx, aby, den float64 }

// sqDist returns the squared distance from (x, y) to the segment.
func (s *segment) sqDist(x, y float64) float64 {
	t := 0.0
	if s.den > 0 {
		t = ((x-s.ax)*s.abx + (y-s.ay)*s.aby) / s.den
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx := x - (s.ax + t*s.abx)
	dy := y - (s.ay + t*s.aby)
	return dx*dx + dy*dy
}

// gridSide is the resolution of the culling grid over the unit
// square. A power of two, so int(x*gridSide) is the exact cell of x.
const gridSide = 64

// digitIndex is a digit's segments plus, for every grid cell, the
// list of segments that can put ink into it. near[start[c]:start[c+1]]
// indexes segs for cell c = cy*gridSide + cx.
type digitIndex struct {
	segs  []segment
	start [gridSide*gridSide + 1]uint16
	near  []uint8
}

// digits indexes every digit, on first use: building the grids takes a
// few milliseconds that a process which renders nothing should not pay.
var digits = sync.OnceValue(func() *[Classes]digitIndex {
	idx := new([Classes]digitIndex)
	// No point of a cell is farther from its center than half the
	// diagonal, so a segment farther than reach from the center is
	// farther than inkReach (with room for rounding) from every point
	// of the cell: there it can only lose to a nearer segment or
	// confirm an intensity of zero, and leaving it out changes nothing.
	const reach = inkReach + 1e-9 + math.Sqrt2/2/gridSide
	for d := range idx {
		g := &idx[d]
		for _, s := range digitStrokes[d] {
			for i := 0; i+1 < len(s); i++ {
				a, b := s[i], s[i+1]
				abx, aby := b.x-a.x, b.y-a.y
				g.segs = append(g.segs, segment{a.x, a.y, abx, aby, abx*abx + aby*aby})
			}
		}
		for c := 0; c < gridSide*gridSide; c++ {
			x := (float64(c%gridSide) + 0.5) / gridSide
			y := (float64(c/gridSide) + 0.5) / gridSide
			for k := range g.segs {
				if math.Sqrt(g.segs[k].sqDist(x, y)) <= reach {
					g.near = append(g.near, uint8(k))
				}
			}
			g.start[c+1] = uint16(len(g.near))
		}
	}
	return idx
})

// intensityAt returns the ink intensity in [0,1] of the digit at unit
// coordinates (x, y), both in [0, 1): 1 on a stroke centerline,
// falling smoothly to 0 past the stroke width (a cheap anti-aliasing).
//
// Only the segments listed for the point's grid cell are measured, and
// the minimum is taken over squared distances with one square root at
// the end; math.Sqrt is monotone and correctly rounded, so that is the
// minimum of the distances, bit for bit.
func (g *digitIndex) intensityAt(x, y float64) float64 {
	c := int(y*gridSide)*gridSide + int(x*gridSide)
	near := g.near[g.start[c]:g.start[c+1]]
	if len(near) == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, k := range near {
		if d2 := g.segs[k].sqDist(x, y); d2 < best {
			best = d2
		}
	}
	best = math.Sqrt(best)
	switch {
	case best <= strokeWidth:
		return 1
	case best >= inkReach:
		return 0
	default:
		t := (best - strokeWidth) / feather
		return 1 - t*t*(3-2*t) // smoothstep fade
	}
}
