package exec_test

import (
	"testing"

	"m3/internal/exec"
	"m3/internal/store"
)

// fill writes deterministic values of wildly mixed magnitudes so that
// any change of floating-point association changes the folded bits —
// the tests below then prove association equality, not approximate
// agreement.
func fillMixed(data []float64) {
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		mag := []float64{1e-8, 1, 1e8}[rng%3]
		data[i] = (float64(rng%2000)/1000 - 1) * mag
	}
}

func sumScan(rows, cols int) (exec.RowScan, []float64) {
	data := make([]float64, rows*cols)
	fillMixed(data)
	return exec.RowScan{
		Store: store.FromSlice(data),
		Rows:  rows, Cols: cols, Stride: cols,
	}, data
}

// TestGroupRowsDerivation pins the canonical group-height function:
// a power-of-two multiple of MinGroupRows, group count bounded by
// MaxRowGroups, derived from the row count alone.
func TestGroupRowsDerivation(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 1000, 16384, 16385, 100000, 1 << 22} {
		g := exec.GroupRows(n)
		if g < exec.MinGroupRows {
			t.Errorf("GroupRows(%d) = %d below MinGroupRows", n, g)
		}
		if g&(g-1) != 0 {
			t.Errorf("GroupRows(%d) = %d not a power of two", n, g)
		}
		if n > 0 {
			if groups := (n + g - 1) / g; groups > exec.MaxRowGroups {
				t.Errorf("GroupRows(%d) = %d yields %d groups > max %d", n, g, groups, exec.MaxRowGroups)
			}
		}
		if g > exec.MinGroupRows && (n+g/2-1)/(g/2) <= exec.MaxRowGroups {
			t.Errorf("GroupRows(%d) = %d is not minimal", n, g)
		}
	}
}

// TestBlocksRespectGroupBoundaries: no block straddles a merge-group
// boundary, the pattern restarts at each boundary, and the partition
// still tiles [0, rows) exactly with non-empty blocks.
func TestBlocksRespectGroupBoundaries(t *testing.T) {
	for _, tc := range []struct{ rows, cols, blockBytes int }{
		{100, 8, 0},
		{17000, 8, 0},
		{17000, 784, 0},
		{1 << 20, 16, 0},
		{50000, 10, 4096},
	} {
		s := exec.RowScan{Rows: tc.rows, Cols: tc.cols, Stride: tc.cols, BlockBytes: tc.blockBytes}
		gr := exec.GroupRows(tc.rows)
		prev := 0
		for _, b := range s.Blocks() {
			if b.Lo != prev || b.Hi <= b.Lo {
				t.Fatalf("rows=%d: bad block [%d,%d) after %d", tc.rows, b.Lo, b.Hi, prev)
			}
			if b.Lo/gr != (b.Hi-1)/gr {
				t.Fatalf("rows=%d: block [%d,%d) straddles group boundary (group height %d)", tc.rows, b.Lo, b.Hi, gr)
			}
			prev = b.Hi
		}
		if prev != tc.rows {
			t.Fatalf("rows=%d: partition ends at %d", tc.rows, prev)
		}
	}
}

// TestGroupRefoldMatchesRoot: refolding ReduceRowGroups partials in
// ascending order reproduces the ReduceRowBlocks root bit for bit, at
// every worker count — the wire contract of the distributed layer.
func TestGroupRefoldMatchesRoot(t *testing.T) {
	const rows, cols = 3000, 7
	scan, _ := sumScan(rows, cols)
	alloc := func() *float64 { return new(float64) }
	fn := func(s *float64, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < cols; j++ {
				*s += block[(i-lo)*stride+j]
			}
		}
	}
	merge := func(dst, src *float64) { *dst += *src }

	ref := scan
	ref.Workers = 1
	root, _, err := exec.ReduceRowBlocks(ref, alloc, fn, merge)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 5; workers++ {
		s := scan
		s.Workers = workers
		groups, _, err := exec.ReduceRowGroups(s, alloc, fn, merge)
		if err != nil {
			t.Fatal(err)
		}
		if want := (rows + exec.GroupRows(rows) - 1) / exec.GroupRows(rows); len(groups) != want {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(groups), want)
		}
		refold := alloc()
		prev := 0
		for _, g := range groups {
			if g.Lo != prev {
				t.Fatalf("workers=%d: group starts at %d, want %d", workers, g.Lo, prev)
			}
			merge(refold, g.State)
			prev = g.Hi
		}
		if prev != rows {
			t.Fatalf("workers=%d: groups end at %d, want %d", workers, prev, rows)
		}
		if *refold != *root {
			t.Errorf("workers=%d: refolded groups = %x, root = %x", workers, *refold, *root)
		}
	}
}

// TestShardGroupsMatchGlobal: scanning group-aligned shards with the
// global GroupRows override yields exactly the group partials the
// global scan produces for those rows — the property that makes a
// K-shard distributed fit bit-identical to a local one.
func TestShardGroupsMatchGlobal(t *testing.T) {
	const rows, cols = 3000, 7
	scan, data := sumScan(rows, cols)
	alloc := func() *float64 { return new(float64) }
	fn := func(s *float64, lo, hi int, block []float64, stride int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < cols; j++ {
				*s += block[(i-lo)*stride+j]
			}
		}
	}
	merge := func(dst, src *float64) { *dst += *src }

	global, _, err := exec.ReduceRowGroups(scan, alloc, fn, merge)
	if err != nil {
		t.Fatal(err)
	}

	gr := exec.GroupRows(rows)
	cuts := []int{0, 4 * gr, 8 * gr, rows} // 3 group-aligned shards
	var shardGroups []exec.GroupPartial[*float64]
	for s := 0; s+1 < len(cuts); s++ {
		lo, hi := cuts[s], cuts[s+1]
		shard := exec.RowScan{
			Store: store.FromSlice(data),
			Off:   lo * cols,
			Rows:  hi - lo, Cols: cols, Stride: cols,
			GroupRows: gr,
			Workers:   3,
		}
		groups, _, err := exec.ReduceRowGroups(shard, alloc, fn, merge)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			shardGroups = append(shardGroups, exec.GroupPartial[*float64]{
				Lo: g.Lo + lo, Hi: g.Hi + lo, State: g.State,
			})
		}
	}
	if len(shardGroups) != len(global) {
		t.Fatalf("shards produced %d groups, global %d", len(shardGroups), len(global))
	}
	for i := range global {
		g, s := global[i], shardGroups[i]
		if g.Lo != s.Lo || g.Hi != s.Hi {
			t.Errorf("group %d range: shard [%d,%d) vs global [%d,%d)", i, s.Lo, s.Hi, g.Lo, g.Hi)
		}
		if *g.State != *s.State {
			t.Errorf("group %d state: shard %x vs global %x", i, *s.State, *g.State)
		}
	}
}
