package graph

import "fmt"

// GenerateRMAT produces a deterministic scale-free directed graph by
// recursive quadrant sampling (R-MAT, Chakrabarti et al. 2004) — the
// standard synthetic stand-in for web/social graphs like those the
// MMap prior work processes. Node count is 2^scale.
func GenerateRMAT(scale int, edgesPerNode int, seed uint64) (*Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: scale %d outside [1,30]", scale)
	}
	if edgesPerNode < 1 {
		return nil, fmt.Errorf("graph: edgesPerNode %d < 1", edgesPerNode)
	}
	nodes := int64(1) << scale
	edges := nodes * int64(edgesPerNode)

	// R-MAT quadrant probabilities (the canonical 57/19/19/5 split).
	const a, b, c = 0.57, 0.19, 0.19

	s := seed ^ 0x9e3779b97f4a7c15
	if s == 0 {
		s = 1
	}
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / float64(1<<53)
	}

	g := &Graph{Nodes: nodes, Edges: make([]int64, 0, 2*edges)}
	for e := int64(0); e < edges; e++ {
		var src, dst int64
		for bit := scale - 1; bit >= 0; bit-- {
			r := next()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		g.Edges = append(g.Edges, src, dst)
	}
	return g, nil
}
