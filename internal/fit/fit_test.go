package fit_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"

	// Every package that declares a pass, so that the registry the
	// tests walk is the one a worker process has.
	_ "m3/internal/ml/bayes"
	_ "m3/internal/ml/kmeans"
	_ "m3/internal/ml/linreg"
	_ "m3/internal/ml/logreg"
	_ "m3/internal/ml/pca"
	_ "m3/internal/ml/preprocess"
)

// Arguments of the declared passes, by field name — gob matches fields
// by name, which is how these stand in for the packages' unexported
// argument types.
type (
	gradArg struct {
		Params    []float64
		Intercept bool
	}
	softmaxArg struct {
		Params    []float64
		Classes   int
		Intercept bool
	}
	assignArg struct {
		Centroids []float64
		K         int
	}
	seedArg  struct{ Prev []float64 }
	covArg   struct{ Mean []float64 }
	gramArg  struct{ NoIntercept bool }
	countArg struct{ Classes int }
)

// passArgs gives every declared pass an argument for d-wide rows whose
// labels are 0 or 1. A pass missing here fails the tests below: add it
// when you declare one.
var passArgs = map[string]func(d int) any{
	"logreg/grad":   func(d int) any { return gradArg{Params: ramp(d + 1), Intercept: true} },
	"softmax/grad":  func(d int) any { return softmaxArg{Params: ramp(2*d + 2), Classes: 2, Intercept: true} },
	"kmeans/assign": func(d int) any { return assignArg{Centroids: ramp(3 * d), K: 3} },
	"kmeans/seed":   func(d int) any { return seedArg{Prev: ramp(d)} },
	"moments":       func(int) any { return struct{}{} },
	"extrema":       func(int) any { return struct{}{} },
	"pca/mean":      func(int) any { return struct{}{} },
	"pca/cov":       func(d int) any { return covArg{Mean: ramp(d)} },
	"linreg/lsq":    func(d int) any { return gradArg{Params: ramp(d + 1), Intercept: true} },
	"linreg/gram":   func(int) any { return gramArg{} },
	"bayes/counts":  func(int) any { return countArg{Classes: 2} },
}

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%7)/4 - 0.75
	}
	return out
}

// rowData fills n×d values of one kind: "mixed" magnitudes (any change
// of association changes the bits), "large" (squares overflow, so
// states are left holding ±Inf and NaN) or "zero".
func rowData(kind string, n, d int) []float64 {
	data := make([]float64, n*d)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range data {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		u := float64(rng%2000)/1000 - 1
		switch kind {
		case "mixed":
			data[i] = u * []float64{1e-8, 1, 1e8}[rng%3]
		case "large":
			data[i] = u * 1e200
		}
	}
	return data
}

func labels01(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = float64(i % 2)
	}
	return y
}

// aggregateOf builds the named pass on a shard of its own (passes keep
// row-indexed scratch there) and returns the exec.Aggregate[T] as a
// reflect.Value the caller may modify.
func aggregateOf(t *testing.T, name string, rows, d int) reflect.Value {
	t.Helper()
	arg, ok := passArgs[name]
	if !ok {
		t.Fatalf("pass %q has no argument in passArgs", name)
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(arg(d)); err != nil {
		t.Fatal(err)
	}
	sh := &fit.Shard{Rows: rows, Cols: d, Labels: labels01(rows)}
	boxed, err := fit.DeclaredAggregates()[name](sh, enc.Bytes())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	agg := reflect.New(reflect.TypeOf(boxed)).Elem()
	agg.Set(reflect.ValueOf(boxed))
	return agg
}

func declaredNames() []string {
	var names []string
	for name := range fit.DeclaredAggregates() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ownsSlice reports whether a state of type t reaches a slice.
func ownsSlice(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice:
		return true
	case reflect.Pointer, reflect.Array:
		return ownsSlice(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if ownsSlice(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// bits flattens a state to the words that make it up: float bits,
// integers, and — when shape is set — every slice's length and
// capacity, so that two states are interchangeable exactly when their
// bits are equal.
func bits(v reflect.Value, shape bool, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, 0)
		}
		return bits(v.Elem(), shape, append(out, 1))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = bits(v.Field(i), shape, out)
		}
	case reflect.Slice, reflect.Array:
		if shape && v.Kind() == reflect.Slice {
			out = append(out, uint64(v.Len()), uint64(v.Cap()))
		}
		for i := 0; i < v.Len(); i++ {
			out = bits(v.Index(i), shape, out)
		}
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Int:
		out = append(out, uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			return append(out, 1)
		}
		out = append(out, 0)
	default:
		panic(fmt.Sprintf("bits: a state holds a %s; teach the test to compare it", v.Kind()))
	}
	return out
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResetIsAlloc holds every declared pass to Reset's contract: a
// state that has accumulated rows — ordinary ones, ones that overflow
// it to ±Inf and NaN, all-zero ones — and is then Reset is bit for bit
// the state Alloc returns, slice lengths and capacities included. A
// Reset that forgets a field (an inertia, a count, one of an extremum's
// bounds) fails here, and so does a pass whose state owns a slice but
// declares no Reset.
func TestResetIsAlloc(t *testing.T) {
	const rows, d = 37, 6
	for _, name := range declaredNames() {
		t.Run(name, func(t *testing.T) {
			agg := aggregateOf(t, name, rows, d)
			alloc, reset, block := agg.FieldByName("Alloc"), agg.FieldByName("Reset"), agg.FieldByName("Block")
			if reset.IsNil() {
				if st := alloc.Type().Out(0); ownsSlice(st) {
					t.Fatalf("state %s owns a slice but the pass declares no Reset: every block would allocate one", st)
				}
				return
			}
			want := bits(alloc.Call(nil)[0], true, nil)
			for _, kind := range []string{"mixed", "large", "zero"} {
				st := alloc.Call(nil)[0]
				block.Call([]reflect.Value{st, reflect.ValueOf(0), reflect.ValueOf(rows),
					reflect.ValueOf(rowData(kind, rows, d)), reflect.ValueOf(d)})
				if kind == "mixed" && sameBits(bits(st, true, nil), want) {
					t.Fatalf("accumulating %d rows left the state as allocated; the check below would prove nothing", rows)
				}
				reset.Call([]reflect.Value{st})
				if got := bits(st, true, nil); !sameBits(got, want) {
					t.Errorf("%s rows: Reset state differs from Alloc state\n reset %x\n alloc %x", kind, got, want)
				}
			}
		})
	}
}

// view stacks depth fused kernels on x (each keeps the width).
func view(x *mat.Dense, depth int) *mat.Dense {
	d := x.Cols()
	kernels := []func() exec.RowKernel{
		func() exec.RowKernel {
			return func(dst, src []float64) []float64 {
				for j, v := range src {
					dst[j] = v*0.5 + 1
				}
				return dst
			}
		},
		func() exec.RowKernel {
			return func(dst, src []float64) []float64 {
				for j, v := range src {
					dst[j] = v - src[(j+1)%d]
				}
				return dst
			}
		},
	}
	for _, k := range kernels[:depth] {
		x = mat.NewFused(x, d, k)
	}
	return x
}

// fold runs the aggregate over the scan both ways an executor does —
// to the root, and group by group — and returns the bits of the root
// and of every group state as it was emitted.
func fold(t *testing.T, agg reflect.Value, scan exec.RowScan) (root []uint64, groups [][]uint64) {
	t.Helper()
	out := agg.MethodByName("Reduce").Call([]reflect.Value{reflect.ValueOf(scan)})
	if err := out[2].Interface(); err != nil {
		t.Fatal(err)
	}
	root = bits(out[0], false, nil)

	each := agg.MethodByName("EachGroup")
	emit := reflect.MakeFunc(each.Type().In(1), func(args []reflect.Value) []reflect.Value {
		groups = append(groups, bits(args[2], false, []uint64{uint64(args[0].Int()), uint64(args[1].Int())}))
		return nil
	})
	if err := each.Call([]reflect.Value{reflect.ValueOf(scan), emit})[1].Interface(); err != nil {
		t.Fatal(err)
	}
	return root, groups
}

// TestRecycledIsNeverRecycled: for every declared pass, over shapes
// that leave ragged groups and blocks (fewer rows than a group, one
// column, a prime row count, a shard's overridden group height), on
// plain and fused views and for several pool sizes, the root and every
// merge-group state computed with recycled states are bit for bit
// those computed with a state allocated per block and per group.
func TestRecycledIsNeverRecycled(t *testing.T) {
	shapes := []struct{ rows, d, groupRows int }{
		{100, 5, 0}, {300, 1, 0}, {1031, 7, 0}, {700, 4, 512}, {2048, 3, 0},
	}
	for _, name := range declaredNames() {
		t.Run(name, func(t *testing.T) {
			if aggregateOf(t, name, 1, 1).FieldByName("Reset").IsNil() {
				t.Skip("no Reset: nothing is recycled")
			}
			for _, sh := range shapes {
				x := mat.NewDenseFrom(rowData("mixed", sh.rows, sh.d), sh.rows, sh.d)
				for depth := 0; depth <= 2; depth++ {
					for _, workers := range []int{1, 2, 3, 8} {
						scan := view(x, depth).ScanCtx(context.Background(), workers)
						scan.GroupRows = sh.groupRows
						scan.BlockBytes = 4096 // several blocks a group even at these sizes

						plain := aggregateOf(t, name, sh.rows, sh.d)
						plain.FieldByName("Reset").SetZero()
						wantRoot, wantGroups := fold(t, plain, scan)
						gotRoot, gotGroups := fold(t, aggregateOf(t, name, sh.rows, sh.d), scan)

						at := fmt.Sprintf("%dx%d groupRows=%d depth=%d workers=%d", sh.rows, sh.d, sh.groupRows, depth, workers)
						if !sameBits(gotRoot, wantRoot) {
							t.Fatalf("%s: recycled root differs\n got  %x\n want %x", at, gotRoot, wantRoot)
						}
						if len(gotGroups) != len(wantGroups) || len(gotGroups) != scan.NumGroups() {
							t.Fatalf("%s: %d groups recycled, %d allocated, scan has %d", at, len(gotGroups), len(wantGroups), scan.NumGroups())
						}
						for g := range gotGroups {
							if !sameBits(gotGroups[g], wantGroups[g]) {
								t.Fatalf("%s: group %d differs\n got  %x\n want %x", at, g, gotGroups[g], wantGroups[g])
							}
						}
					}
				}
			}
		})
	}
}
