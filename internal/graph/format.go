// Package graph reproduces the substrate the paper generalizes from:
// virtual-memory graph computation on a single PC (Lin et al., "MMap:
// Fast billion-scale graph computation on a PC via memory mapping",
// IEEE BigData 2014 — the paper's reference [3]). It provides a
// mappable on-disk edge-list format and the two algorithms that work
// evaluates: PageRank and connected components, both implemented as
// sequential edge scans so they page exactly like M3's ML workloads.
package graph

import (
	"encoding/binary"
	"fmt"
	"os"

	"m3/internal/mmap"
)

// GraphMagic identifies an M3 edge-list file.
const GraphMagic = "M3GRAPH\n"

// graphHeaderSize is the page-aligned header length.
const graphHeaderSize = 4096

// Graph is a directed graph as a (possibly memory-mapped) edge list
// sorted by source. Edges are stored as consecutive int64 pairs
// (src, dst), so a scan of the file is one pass over all edges.
type Graph struct {
	// Nodes is the node count; node ids are [0, Nodes).
	Nodes int64
	// Edges holds 2*EdgeCount int64 values: src0,dst0,src1,dst1,...
	Edges []int64

	region *mmap.Region
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int64 { return int64(len(g.Edges) / 2) }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int64) (src, dst int64) {
	return g.Edges[2*i], g.Edges[2*i+1]
}

// Close unmaps a mapped graph (no-op for in-memory graphs).
func (g *Graph) Close() error {
	if g.region == nil {
		return nil
	}
	err := g.region.Unmap()
	g.region = nil
	g.Edges = nil
	return err
}

// Validate checks that all endpoints are in range.
func (g *Graph) Validate() error {
	if g.Nodes <= 0 {
		return fmt.Errorf("graph: non-positive node count %d", g.Nodes)
	}
	if len(g.Edges)%2 != 0 {
		return fmt.Errorf("graph: odd edge array length %d", len(g.Edges))
	}
	for i := int64(0); i < g.EdgeCount(); i++ {
		s, d := g.Edge(i)
		if s < 0 || s >= g.Nodes || d < 0 || d >= g.Nodes {
			return fmt.Errorf("graph: edge %d = (%d,%d) outside %d nodes", i, s, d, g.Nodes)
		}
	}
	return nil
}

// Write stores the graph in the mappable on-disk format:
// header page (magic, version, nodes, edge count), then the raw
// little-endian edge array.
func (g *Graph) Write(path string) error {
	if err := g.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	hdr := make([]byte, graphHeaderSize)
	copy(hdr, GraphMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.Nodes))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.EdgeCount()))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	buf := make([]byte, 1<<16)
	pos := 0
	flush := func() error {
		_, err := f.Write(buf[:pos])
		pos = 0
		return err
	}
	for _, v := range g.Edges {
		if pos+8 > len(buf) {
			if err := flush(); err != nil {
				f.Close()
				return err
			}
		}
		binary.LittleEndian.PutUint64(buf[pos:], uint64(v))
		pos += 8
	}
	if err := flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Open memory-maps an edge-list file. Edge data pages in lazily as
// algorithms scan it.
func Open(path string) (*Graph, error) {
	region, err := mmap.MapFile(path)
	if err != nil {
		return nil, err
	}
	b := region.Bytes()
	if len(b) < graphHeaderSize {
		region.Unmap()
		return nil, fmt.Errorf("graph: %q truncated header", path)
	}
	if string(b[:8]) != GraphMagic {
		region.Unmap()
		return nil, fmt.Errorf("graph: %q bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != 1 {
		region.Unmap()
		return nil, fmt.Errorf("graph: %q unsupported version %d", path, v)
	}
	nodes := int64(binary.LittleEndian.Uint64(b[16:]))
	// The edge count is untrusted: bound it by the payload before
	// multiplying, so no count can overflow the size computation.
	edges := binary.LittleEndian.Uint64(b[24:])
	if fits := uint64(len(b)-graphHeaderSize) / 16; edges > fits {
		region.Unmap()
		return nil, fmt.Errorf("graph: %q header claims %d edges, payload holds %d", path, edges, fits)
	}
	payload := b[graphHeaderSize : graphHeaderSize+16*int(edges)]
	g := &Graph{
		Nodes:  nodes,
		Edges:  int64View(payload),
		region: region,
	}
	if err := g.Validate(); err != nil {
		region.Unmap()
		return nil, err
	}
	return g, nil
}
