package knn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"m3/internal/blas"
	"m3/internal/fit"
	"m3/internal/infimnist"
	"m3/internal/mat"
)

func TestSearchExactSmall(t *testing.T) {
	// References on a line: 0, 1, 2, 3, 4.
	refs := mat.NewDense(5, 1)
	for i := 0; i < 5; i++ {
		refs.Set(i, 0, float64(i))
	}
	queries := mat.NewDense(1, 1)
	queries.Set(0, 0, 2.2)
	res, err := Search(context.Background(), refs, queries, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := []int{res[0][0].Index, res[0][1].Index, res[0][2].Index}
	want := []int{2, 3, 1} // distances 0.2, 0.8, 1.2
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v want %v", got, want)
		}
	}
	// Distances ascending.
	for i := 1; i < 3; i++ {
		if res[0][i].SqDist < res[0][i-1].SqDist {
			t.Error("distances not ascending")
		}
	}
}

func TestSearchValidation(t *testing.T) {
	refs := mat.NewDense(3, 2)
	q := mat.NewDense(1, 3)
	if _, err := Search(context.Background(), refs, q, 1, Options{}); err == nil {
		t.Error("accepted dim mismatch")
	}
	q2 := mat.NewDense(1, 2)
	if _, err := Search(context.Background(), refs, q2, 0, Options{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Search(context.Background(), refs, q2, 4, Options{}); err == nil {
		t.Error("accepted k>n")
	}
}

func TestSearchMatchesNaive(t *testing.T) {
	// Cross-check against full sort for random data.
	f := func(seed int64) bool {
		r := uint64(seed)
		if r == 0 {
			r = 1
		}
		next := func() float64 {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return float64(r%1000) / 100
		}
		const n, d, k = 20, 3, 5
		refs := mat.NewDense(n, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				refs.Set(i, j, next())
			}
		}
		q := mat.NewDense(1, d)
		for j := 0; j < d; j++ {
			q.Set(0, j, next())
		}
		res, err := Search(context.Background(), refs, q, k, Options{})
		if err != nil {
			return false
		}
		// Naive: sort all distances.
		type pair struct {
			idx int
			d2  float64
		}
		all := make([]pair, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < d; j++ {
				diff := refs.At(i, j) - q.At(0, j)
				s += diff * diff
			}
			all[i] = pair{i, s}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d2 != all[b].d2 {
				return all[a].d2 < all[b].d2
			}
			return all[a].idx < all[b].idx
		})
		for i := 0; i < k; i++ {
			if res[0][i].Index != all[i].idx ||
				math.Abs(res[0][i].SqDist-all[i].d2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClassifyDigits(t *testing.T) {
	g := infimnist.Generator{Seed: 23}
	const nRefs, nQ = 300, 60
	xs, labels := g.Matrix(0, nRefs)
	refs := mat.NewDenseFrom(xs, nRefs, infimnist.Features)
	y := make([]int, nRefs)
	for i, v := range labels {
		y[i] = int(v)
	}
	qx, qlabels := g.Matrix(20000, nQ)
	queries := mat.NewDenseFrom(qx, nQ, infimnist.Features)

	pred, err := Classify(context.Background(), refs, y, queries, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred {
		if p == int(qlabels[i]) {
			correct++
		}
	}
	if acc := float64(correct) / nQ; acc < 0.8 {
		t.Errorf("kNN digit accuracy = %v", acc)
	}
}

func TestClassifyValidation(t *testing.T) {
	refs := mat.NewDense(3, 2)
	q := mat.NewDense(1, 2)
	if _, err := Classify(context.Background(), refs, []int{0, 1}, q, 1, Options{}); err == nil {
		t.Error("accepted label mismatch")
	}
}

func TestClassifyK1IsNearest(t *testing.T) {
	refs := mat.NewDense(2, 1)
	refs.Set(0, 0, 0)
	refs.Set(1, 0, 10)
	q := mat.NewDense(2, 1)
	q.Set(0, 0, 1)
	q.Set(1, 0, 9)
	pred, err := Classify(context.Background(), refs, []int{7, 8}, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 7 || pred[1] != 8 {
		t.Errorf("pred = %v", pred)
	}
}

// TestSearchDeterministicAcrossWorkers: the blocked reference scan
// returns identical neighbor lists for every worker count — block
// heaps merge in ascending block order, so the kept set matches the
// sequential scan's whatever bound the other workers have published.
// 100 columns put 327 rows in a 256 KiB block: 3000 rows are 10 blocks
// in 12 merge groups.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	const n, d, k, qn = 3000, 100, 7, 5
	refs := mat.NewDense(n, d)
	queries := mat.NewDense(qn, d)
	r := uint64(31)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%10000) / 100
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			refs.Set(i, j, next())
		}
	}
	for i := 0; i < qn; i++ {
		for j := 0; j < d; j++ {
			queries.Set(i, j, next())
		}
	}
	opts := func(w int) Options {
		return Options{FitOptions: fit.FitOptions{Workers: w}}
	}
	ref, err := Search(context.Background(), refs, queries, k, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 16} {
		got, err := Search(context.Background(), refs, queries, k, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		for qi := range ref {
			for i := range ref[qi] {
				if got[qi][i] != ref[qi][i] {
					t.Fatalf("workers=%d: query %d neighbor %d = %+v, want %+v",
						workers, qi, i, got[qi][i], ref[qi][i])
				}
			}
		}
	}
}

// TestSearchCancellation: a pre-cancelled context aborts the scan.
func TestSearchCancellation(t *testing.T) {
	refs := mat.NewDense(100, 4)
	q := mat.NewDense(2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, refs, q, 3, Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchMatchesBruteForceWithTies: on tables full of duplicated
// rows (exact distance ties, including ties at the k-th place) Search
// returns the (distance, index)-sorted prefix of a brute-force scan,
// bit for bit, for every worker count and k from 1 to the whole table.
// 2048 columns put 16 rows in a 256 KiB block, so 1100 rows are 69
// blocks in 5 merge groups of 256 rows, and the shared prune bound
// crosses every one of those boundaries. Rows equal to their
// predecessor straddle block and group boundaries, and the queries
// equal to reference rows put distance-0 ties on both sides of them.
func TestSearchMatchesBruteForceWithTies(t *testing.T) {
	const n, d, qn = 1100, 2048, 8
	rng := rand.New(rand.NewSource(11))
	refs := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		switch {
		case i%256 == 0 && i > 0, i%32 == 16:
			refs.SetRow(i, refs.RawRow(i-1)) // a tie across a group or block boundary
		case i >= 4 && rng.Intn(3) == 0:
			refs.SetRow(i, refs.RawRow(rng.Intn(i))) // duplicate an earlier row
		default:
			for j := 0; j < d; j++ {
				refs.Set(i, j, rng.NormFloat64())
			}
		}
	}
	queries := mat.NewDense(qn, d)
	for qi, r := range []int{255, 511, 1023, 15, 47, rng.Intn(n), -1, -1} {
		if r >= 0 {
			queries.SetRow(qi, refs.RawRow(r)) // distance 0, tied across a boundary
			continue
		}
		for j := 0; j < d; j++ {
			queries.Set(qi, j, rng.NormFloat64())
		}
	}

	brute := bruteForce(refs, queries)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, k := range []int{1, 5, 64, n} {
			got, err := Search(context.Background(), refs, queries, k, Options{FitOptions: fit.FitOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			checkPrefix(t, fmt.Sprintf("workers %d k %d", workers, k), got, brute, k)
		}
	}
}

// checkPrefix fails unless every got[qi] is the first k entries of
// want[qi], indices and distance bits alike.
func checkPrefix(t *testing.T, name string, got, want [][]Neighbor, k int) {
	t.Helper()
	for qi := range got {
		if len(got[qi]) != k {
			t.Fatalf("%s query %d: %d neighbors, want %d", name, qi, len(got[qi]), k)
		}
		for i, nb := range got[qi] {
			w := want[qi][i]
			if nb.Index != w.Index || math.Float64bits(nb.SqDist) != math.Float64bits(w.SqDist) {
				t.Fatalf("%s query %d rank %d: got (%d, %v), brute force (%d, %v)",
					name, qi, i, nb.Index, nb.SqDist, w.Index, w.SqDist)
			}
		}
	}
}

// nonFiniteTable is a 600 × 2048 table (38 blocks, 3 merge groups)
// with a NaN in row nanRow and a +Inf in row infRow, and six queries:
// copies of rows 199, 201, 47, 49 and 0, and one random. With the NaN
// in row 200 and the +Inf in row 48, the copies have distance-0
// neighbors beside both; with the NaN in row 0, the copy of row 0 is a
// query whose every distance is NaN.
func nonFiniteTable(nanRow, infRow int) (refs, queries *mat.Dense) {
	const n, d = 600, 2048
	rng := rand.New(rand.NewSource(5))
	refs = mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			refs.Set(i, j, rng.NormFloat64())
		}
	}
	refs.Set(nanRow, 1500, math.NaN()) // past several partial-sum checks
	refs.Set(infRow, 0, math.Inf(1))
	queries = mat.NewDense(6, d)
	for qi, r := range []int{199, 201, 47, 49, 0, -1} {
		if r >= 0 {
			queries.SetRow(qi, refs.RawRow(r))
			continue
		}
		for j := 0; j < d; j++ {
			queries.Set(qi, j, rng.NormFloat64())
		}
	}
	return refs, queries
}

// bruteForce sorts every reference row for every query in result
// order, a NaN distance after every number.
func bruteForce(refs, queries *mat.Dense) [][]Neighbor {
	out := make([][]Neighbor, queries.Rows())
	for qi := range out {
		all := make([]Neighbor, refs.Rows())
		for i := range all {
			all[i] = Neighbor{Index: i, SqDist: blas.SqDist(refs.RawRow(i), queries.RawRow(qi))}
		}
		sort.Slice(all, func(a, b int) bool {
			da, db := all[a].SqDist, all[b].SqDist
			if math.IsNaN(da) != math.IsNaN(db) {
				return math.IsNaN(db)
			}
			if da != db && !math.IsNaN(da) {
				return da < db
			}
			return all[a].Index < all[b].Index
		})
		out[qi] = all
	}
	return out
}

// TestSearchNonFinitePinned: a table with one NaN row and one +Inf row
// gives the same neighbor lists on every worker count, equal to a
// brute force that sorts NaN last. For k = 1 and 5 the index lists
// are pinned: they are what the search returned before the prune bound
// was shared, which also matched this brute force at k = 64. At k = n
// that search did not sort its output (the NaN and +Inf rows came out
// among the finite ones), and a NaN in a heap's first row froze the
// heap; the second table puts the NaN in row 0 and checks the brute
// force there.
func TestSearchNonFinitePinned(t *testing.T) {
	pinned := map[int][][]int{
		1: {{199}, {201}, {47}, {49}, {0}, {459}},
		5: {
			{199, 279, 66, 519, 525},
			{201, 44, 130, 407, 38},
			{47, 525, 421, 483, 464},
			{49, 522, 98, 305, 425},
			{0, 298, 288, 345, 431},
			{459, 542, 204, 483, 407},
		},
	}
	for _, tc := range []struct{ nanRow, infRow int }{{200, 48}, {0, 48}} {
		refs, queries := nonFiniteTable(tc.nanRow, tc.infRow)
		brute := bruteForce(refs, queries)
		for _, k := range []int{1, 5, 64, refs.Rows()} {
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := Search(context.Background(), refs, queries, k, Options{FitOptions: fit.FitOptions{Workers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("NaN row %d workers %d k %d", tc.nanRow, workers, k)
				checkPrefix(t, name, got, brute, k)
				if want, ok := pinned[k]; ok && tc.nanRow == 200 {
					for qi := range got {
						for i, nb := range got[qi] {
							if nb.Index != want[qi][i] {
								t.Fatalf("%s query %d rank %d: index %d, pinned %d", name, qi, i, nb.Index, want[qi][i])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkSearch times one k = 5 search of 1, 8 and 64 Infimnist
// queries against a 2048 × 784 Infimnist reference table, on one
// worker and on NumCPU.
func BenchmarkSearch(b *testing.B) {
	g := infimnist.Generator{Seed: 1}
	const nRefs = 2048
	xs, _ := g.Matrix(0, nRefs)
	refs := mat.NewDenseFrom(xs, nRefs, infimnist.Features)
	qx, _ := g.Matrix(100000, 64)
	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, q := range []int{1, 8, 64} {
			queries := mat.NewDenseFrom(qx[:q*infimnist.Features], q, infimnist.Features)
			b.Run(fmt.Sprintf("q%d/workers%d", q, workers), func(b *testing.B) {
				opts := Options{FitOptions: fit.FitOptions{Workers: workers}}
				for i := 0; i < b.N; i++ {
					if _, err := Search(context.Background(), refs, queries, 5, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
