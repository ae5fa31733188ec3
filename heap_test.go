package m3

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"m3/internal/dist"
)

// heapTable generates an n-digit table and opens it memory-mapped with
// a two-worker pool.
func heapTable(tb testing.TB, n int64) (eng *Engine, tbl *Table, path string) {
	tb.Helper()
	dir := tb.TempDir()
	path = filepath.Join(dir, "digits.m3")
	if err := GenerateInfimnist(path, n, 3); err != nil {
		tb.Fatal(err)
	}
	eng = New(Config{Mode: MemoryMapped, Workers: 2, TempDir: dir})
	tb.Cleanup(func() { eng.Close() })
	tbl, err := eng.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, tbl, path
}

// allocated runs f once to let lazy set-up happen (gob's type tables,
// the digit prototypes) and then returns what a second run allocates:
// runtime.MemStats.TotalAlloc and Mallocs deltas, which count every
// allocation whether or not it was collected.
func allocated(tb testing.TB, f func()) (bytes, objects uint64) {
	tb.Helper()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

var heapKMeans = KMeansClustering{Options: KMeansOptions{K: 5, MaxIterations: 5, RunAllIterations: true, Seed: 1}}

// TestFitHeapIsBounded is the premise as a number: the table is in the
// mapping, so what a fit allocates is a few partial states per scan
// worker — a function of the pool and the model, not of the rows. A
// k-means fit over 4096 mapped digits (25 MB) stays under 2 MB, and
// twice the rows costs the same states again plus only what k-means
// itself keeps per row (an assignment and a seeding distance, 8 bytes
// each) and 16 bytes per 256 KB block of the scans' block lists. The
// 8192-row fit through a 3-shard cluster, where every round ships its
// 32 group states, is held to 2× the bytes the replies carry: a reply
// is encoded into the worker's buffer and read into the coordinator's,
// both reused from round to round, and decoded in place (a gob
// envelope around the reply made it 6.3×; allocating a state per
// block and per group, 19×).
func TestFitHeapIsBounded(t *testing.T) {
	ctx := context.Background()
	fit := func(rows int64) (path string, bytes, objects uint64) {
		eng, tbl, path := heapTable(t, rows)
		bytes, objects = allocated(t, func() {
			if _, err := eng.Fit(ctx, heapKMeans, tbl); err != nil {
				t.Fatal(err)
			}
		})
		return path, bytes, objects
	}
	_, small, smallObjects := fit(4096)
	if small > 2<<20 {
		t.Errorf("k-means over 4096 mapped rows allocated %d bytes, want < 2 MiB", small)
	}
	path, large, largeObjects := fit(8192)
	if limit := small + small/20 + 24*4096; large > limit {
		t.Errorf("k-means over 8192 rows allocated %d bytes, 4096 rows %d: want <= 1.05x + 24 B a row = %d", large, small, limit)
	}
	if limit := smallObjects + smallObjects/10; largeObjects > limit {
		t.Errorf("k-means over 8192 rows made %d allocations, 4096 rows %d: the count follows the rows", largeObjects, smallObjects)
	}

	cl := startTestCluster(t, 3, dist.WorkerConfig{Mode: MemoryMapped, Workers: 2})
	var stats ClusterStats
	// Workers and coordinator share this process, so the delta covers
	// both ends of every round.
	sharded, _ := allocated(t, func() {
		before := cl.Stats()
		if _, err := cl.Fit(ctx, heapKMeans, path); err != nil {
			t.Fatal(err)
		}
		stats = cl.Stats().Sub(before)
	})
	if budget := 2 * uint64(stats.BytesReceived); sharded > budget {
		t.Errorf("3-shard k-means allocated %d bytes over %d rounds that received %d: %.1fx the payload, want <= 2x",
			sharded, stats.Rounds, stats.BytesReceived, float64(sharded)/float64(stats.BytesReceived))
	}
}

// BenchmarkKMeansFit and BenchmarkLogregFit report B/op and allocs/op
// of a whole fit over a mapped table — the number TestFitHeapIsBounded
// bounds, for -benchmem comparisons.
func BenchmarkKMeansFit(b *testing.B) {
	eng, tbl, _ := heapTable(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Fit(context.Background(), heapKMeans, tbl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogregFit(b *testing.B) {
	eng, tbl, _ := heapTable(b, 4096)
	est := LogisticRegression{Binarize: true, Positive: 0, Options: LogisticOptions{MaxIterations: 10}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Fit(context.Background(), est, tbl); err != nil {
			b.Fatal(err)
		}
	}
}
