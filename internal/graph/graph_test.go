package graph

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesValidate(t *testing.T) {
	if _, err := fromEdges(3, [][2]int64{{0, 1}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fromEdges(2, [][2]int64{{0, 5}}); err == nil {
		t.Error("accepted out-of-range endpoint")
	}
	if _, err := fromEdges(0, nil); err == nil {
		t.Error("accepted zero nodes")
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	g, err := fromEdges(4, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.m3g")
	if err := g.Write(path); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Nodes != 4 || m.EdgeCount() != 5 {
		t.Fatalf("mapped graph: %d nodes, %d edges", m.Nodes, m.EdgeCount())
	}
	for i := int64(0); i < g.EdgeCount(); i++ {
		s1, d1 := g.Edge(i)
		s2, d2 := m.Edge(i)
		if s1 != s2 || d1 != d2 {
			t.Fatalf("edge %d: (%d,%d) vs (%d,%d)", i, s1, d1, s2, d2)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestOpenRejectsHostileEdgeCount: an edge count the payload cannot
// hold is an error, including counts whose byte size overflows int64
// (which used to panic or wrap to an empty graph).
func TestOpenRejectsHostileEdgeCount(t *testing.T) {
	for _, edges := range []uint64{math.MaxUint64, 1<<59 + 1, 1 << 60, 3} {
		b := make([]byte, graphHeaderSize+32) // room for two edges
		copy(b, GraphMagic)
		binary.LittleEndian.PutUint32(b[8:], 1)
		binary.LittleEndian.PutUint64(b[16:], 4)
		binary.LittleEndian.PutUint64(b[24:], edges)
		path := filepath.Join(t.TempDir(), "g.m3g")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(path)
		if err == nil {
			g.Close()
			t.Errorf("edges=%#x: opened a graph with %d edges", edges, g.EdgeCount())
		} else if !strings.Contains(err.Error(), "header claims") {
			t.Errorf("edges=%#x: err = %v", edges, err)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("opened missing file")
	}
}

func TestPageRankRingIsUniform(t *testing.T) {
	g, err := generateRing(10)
	if err != nil {
		t.Fatal(err)
	}
	rank, iters, err := PageRank(context.Background(), g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Errorf("iters = %d", iters)
	}
	for i, r := range rank {
		if math.Abs(r-0.1) > 1e-6 {
			t.Errorf("rank[%d] = %v want 0.1 (symmetric ring)", i, r)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g, err := GenerateRMAT(8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := PageRank(context.Background(), g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range rank {
		sum += r
		if r < 0 {
			t.Fatal("negative rank")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v", sum)
	}
}

func TestPageRankHubGetsHighRank(t *testing.T) {
	// Star graph: everyone points at node 0.
	pairs := make([][2]int64, 0, 9)
	for i := int64(1); i < 10; i++ {
		pairs = append(pairs, [2]int64{i, 0})
	}
	g, err := fromEdges(10, pairs)
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := PageRank(context.Background(), g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(rank, 3)
	if top[0] != 0 {
		t.Errorf("top node = %d want 0 (the hub)", top[0])
	}
	if rank[0] < 5*rank[1] {
		t.Errorf("hub rank %v not dominant over %v", rank[0], rank[1])
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	// Node 2 has no out-edges; total rank must still be 1.
	g, err := fromEdges(3, [][2]int64{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rank, _, err := PageRank(context.Background(), g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ranks sum to %v with dangling node", sum)
	}
}

func TestTopK(t *testing.T) {
	rank := []float64{0.1, 0.5, 0.2, 0.9}
	top := TopK(rank, 2)
	if top[0] != 3 || top[1] != 1 {
		t.Errorf("TopK = %v", top)
	}
	if got := TopK(rank, 100); len(got) != 4 {
		t.Errorf("TopK clamp = %v", got)
	}
}

func TestConnectedComponentsTwoCliques(t *testing.T) {
	// Nodes 0-2 form one component, 3-5 another.
	g, err := fromEdges(6, [][2]int64{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	labels, scans, err := ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	if scans < 1 {
		t.Errorf("scans = %d", scans)
	}
	if ComponentCount(labels) != 2 {
		t.Errorf("components = %d want 2 (labels %v)", ComponentCount(labels), labels)
	}
	if labels[0] != labels[2] || labels[3] != labels[5] {
		t.Errorf("component members split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("components merged: %v", labels)
	}
}

func TestConnectedComponentsSingletons(t *testing.T) {
	g := &Graph{Nodes: 5}
	labels, _, err := ConnectedComponents(g)
	if err != nil {
		t.Fatal(err)
	}
	if ComponentCount(labels) != 5 {
		t.Errorf("isolated nodes: %d components", ComponentCount(labels))
	}
}

func TestGenerateRMATDeterministic(t *testing.T) {
	a, err := GenerateRMAT(6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRMAT(6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.EdgeCount() != b.EdgeCount() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge array differs at %d", i)
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated graph invalid: %v", err)
	}
	if _, err := GenerateRMAT(0, 3, 1); err == nil {
		t.Error("accepted scale 0")
	}
	if _, err := GenerateRMAT(5, 0, 1); err == nil {
		t.Error("accepted 0 edges per node")
	}
}

func TestGenerateRMATSkewed(t *testing.T) {
	// R-MAT graphs are scale-free-ish: the max in-degree should far
	// exceed the mean.
	g, err := GenerateRMAT(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	inDeg := make([]int64, g.Nodes)
	for i := int64(0); i < g.EdgeCount(); i++ {
		_, dst := g.Edge(i)
		inDeg[dst]++
	}
	var maxDeg int64
	for _, d := range inDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(g.EdgeCount()) / float64(g.Nodes)
	if float64(maxDeg) < 4*mean {
		t.Errorf("max in-degree %d not skewed vs mean %.1f", maxDeg, mean)
	}
}

func TestPageRankOverMappedGraph(t *testing.T) {
	// The MMap reproduction end-to-end: generate, write, map, rank —
	// results identical to in-memory.
	g, err := GenerateRMAT(7, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := PageRank(context.Background(), g, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat.m3g")
	if err := g.Write(path); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, _, err := PageRank(context.Background(), m, PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rank[%d]: mapped %v vs in-memory %v", i, got[i], want[i])
		}
	}
}

// Property: component labels are always the minimum node id reachable
// in the undirected sense, so every label is <= its node id.
func TestPropertyComponentLabelsMinimal(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := GenerateRMAT(5, 2, seed)
		if err != nil {
			return false
		}
		labels, _, err := ConnectedComponents(g)
		if err != nil {
			return false
		}
		for i, l := range labels {
			if l > int64(i) {
				return false
			}
			// A label must itself be labelled with itself (root).
			if labels[l] != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fromEdges builds an in-memory graph from (src, dst) pairs.
func fromEdges(nodes int64, pairs [][2]int64) (*Graph, error) {
	g := &Graph{Nodes: nodes, Edges: make([]int64, 0, 2*len(pairs))}
	for _, p := range pairs {
		g.Edges = append(g.Edges, p[0], p[1])
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// generateRing returns a directed cycle over n nodes — a graph with
// one component and uniform PageRank, useful as a test oracle.
func generateRing(n int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: ring needs >= 2 nodes")
	}
	g := &Graph{Nodes: n, Edges: make([]int64, 0, 2*n)}
	for i := int64(0); i < n; i++ {
		g.Edges = append(g.Edges, i, (i+1)%n)
	}
	return g, nil
}
