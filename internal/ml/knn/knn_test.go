package knn

import (
	"context"
	"math"
	"math/rand"
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
// sequential scan's.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	const n, d, k, qn = 3000, 8, 7, 5
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
	for _, workers := range []int{2, 4, 16} {
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
// The width spans several early-abandon checks.
func TestSearchMatchesBruteForceWithTies(t *testing.T) {
	const n, d, qn = 96, 300, 7
	rng := rand.New(rand.NewSource(11))
	refs := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		if i >= 4 && rng.Intn(2) == 0 {
			refs.SetRow(i, refs.RawRow(rng.Intn(i))) // duplicate an earlier row
			continue
		}
		for j := 0; j < d; j++ {
			refs.Set(i, j, rng.NormFloat64())
		}
	}
	queries := mat.NewDense(qn, d)
	for qi := 0; qi < qn; qi++ {
		if qi%2 == 0 {
			queries.SetRow(qi, refs.RawRow(rng.Intn(n))) // distance 0, usually tied
			continue
		}
		for j := 0; j < d; j++ {
			queries.Set(qi, j, rng.NormFloat64())
		}
	}

	brute := make([][]Neighbor, qn)
	for qi := range brute {
		all := make([]Neighbor, n)
		for i := range all {
			all[i] = Neighbor{Index: i, SqDist: blas.SqDist(refs.RawRow(i), queries.RawRow(qi))}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].SqDist != all[b].SqDist {
				return all[a].SqDist < all[b].SqDist
			}
			return all[a].Index < all[b].Index
		})
		brute[qi] = all
	}

	for _, workers := range []int{1, 2, 8} {
		for _, k := range []int{1, 5, n} {
			got, err := Search(context.Background(), refs, queries, k, Options{FitOptions: fit.FitOptions{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			for qi := range got {
				for i, nb := range got[qi] {
					want := brute[qi][i]
					if nb.Index != want.Index || math.Float64bits(nb.SqDist) != math.Float64bits(want.SqDist) {
						t.Fatalf("workers %d k %d query %d rank %d: got (%d, %v), brute force (%d, %v)",
							workers, k, qi, i, nb.Index, nb.SqDist, want.Index, want.SqDist)
					}
				}
			}
		}
	}
}
