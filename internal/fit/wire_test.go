package fit_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
)

// Values a state may hold that a careless codec loses: NaNs with
// payloads and signs, a signalling NaN, −0, ±Inf, denormals, and the
// ends of int.
var (
	hostileFloats = []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff80000deadbeef),
		math.Float64frombits(0x7ff0000000000001), math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -1.5,
	}
	hostileInts = []int{math.MaxInt, math.MinInt, -1, 0, 1}
)

// fillHostile sets every exported leaf of state to hostile values in
// turn and returns how many it set. Unexported fields (scratch the wire
// never carries) keep what Alloc gave them.
func fillHostile(v reflect.Value, n int) int {
	switch v.Kind() {
	case reflect.Pointer:
		return fillHostile(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n = fillHostile(v.Field(i), n)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n = fillHostile(v.Index(i), n)
		}
	case reflect.Float64:
		v.SetFloat(hostileFloats[n%len(hostileFloats)])
		n++
	case reflect.Int:
		v.SetInt(int64(hostileInts[n%len(hostileInts)]))
		n++
	}
	return n
}

// TestCodecRoundTrip: for every declared pass, a state whose exported
// leaves hold hostile values, encoded and decoded into a state that has
// accumulated rows and been Reset — what a coordinator decodes into —
// is bit for bit the state that was encoded, slice lengths and
// capacities included, and the encoding is exactly its leaves' words.
func TestCodecRoundTrip(t *testing.T) {
	const rows, d = 37, 6
	for _, name := range declaredNames() {
		t.Run(name, func(t *testing.T) {
			agg := aggregateOf(t, name, rows, d)
			alloc, reset, block := agg.FieldByName("Alloc"), agg.FieldByName("Reset"), agg.FieldByName("Block")
			src := alloc.Call(nil)[0]
			leaves := fillHostile(src, 0)
			if leaves == 0 {
				t.Fatal("the state has no leaf to fill")
			}
			want := bits(src, true, nil)

			dst := alloc.Call(nil)[0]
			if !reset.IsNil() {
				block.Call([]reflect.Value{dst, reflect.ValueOf(0), reflect.ValueOf(rows),
					reflect.ValueOf(rowData("mixed", rows, d)), reflect.ValueOf(d)})
				reset.Call([]reflect.Value{dst})
			}
			trailer := []byte{0xa5, 0x5a}
			enc := append(fit.EncodeState(name, nil, src.Interface()), trailer...)
			if words := (len(enc) - len(trailer)) / 8; words != leaves+slicesIn(src) {
				t.Errorf("encoding is %d words, want %d leaves + one length per slice", words, leaves)
			}
			rest, err := fit.DecodeState(name, enc, dst.Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rest, trailer) {
				t.Errorf("decode left %x, want the %x that followed the state", rest, trailer)
			}
			if got := bits(dst, true, nil); !sameBits(got, want) {
				t.Errorf("decoded state differs from the encoded one\n got  %x\n want %x", got, want)
			}
		})
	}
}

// slicesIn counts the exported slices of a state.
func slicesIn(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		return slicesIn(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n += slicesIn(v.Field(i))
			}
		}
		return n
	case reflect.Slice:
		return 1
	}
	return 0
}

// declareOf declares a pass with state type T and a constructor that is
// never called.
func declareOf[T any](name string) {
	fit.Declare(name, func(*fit.Shard, struct{}) (exec.Aggregate[T], error) { return exec.Aggregate[T]{}, nil })
}

// TestDeclareRefusesWhatTheWireCannotCarry: a state with a leaf the
// codec does not know panics at Declare, naming the pass and the field,
// and the pass is not registered.
func TestDeclareRefusesWhatTheWireCannotCarry(t *testing.T) {
	type (
		withString struct{ Label string }
		withMap    struct{ Counts map[int]int }
		withBool   struct {
			Loss float64
			Done bool
		}
		withFloat32s struct{ Grad []float32 }
	)
	for _, tc := range []struct {
		name, field string
		declare     func(name string)
	}{
		{"test/string", "withString.Label", declareOf[*withString]},
		{"test/map", "withMap.Counts", declareOf[*withMap]},
		{"test/bool", "withBool.Done", declareOf[withBool]},
		{"test/float32s", "withFloat32s.Grad", declareOf[*withFloat32s]},
		{"test/scalar-string", "the state", declareOf[*string]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.name) || !strings.Contains(msg, tc.field) {
					t.Errorf("panic %q does not name the pass %s and %s", msg, tc.name, tc.field)
				}
				if _, ok := fit.DeclaredAggregates()[tc.name]; ok {
					t.Errorf("%s was registered", tc.name)
				}
			}()
			tc.declare(tc.name)
		})
	}
}

// assignReply is a real reply to kmeans/assign: a 600-row, 3-column
// shard folded at 2 centroids, three merge groups. It returns the
// encoded argument, the reply, the root a local Reduce computes, and
// the encoded size of one group.
func assignReply(tb testing.TB) (arg, reply []byte, root []uint64, groupBytes int) {
	const rows, d, k = 600, 3, 2
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(assignArg{Centroids: ramp(k * d), K: k}); err != nil {
		tb.Fatal(err)
	}
	x := mat.NewDenseFrom(rowData("mixed", rows, d), rows, d)
	scan := x.ScanCtx(context.Background(), 2)
	reply, err := fit.Serve("kmeans/assign", &fit.Shard{Rows: rows, Cols: d}, scan, enc.Bytes(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	boxed, err := fit.DeclaredAggregates()["kmeans/assign"](&fit.Shard{Rows: rows, Cols: d}, enc.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	out := reflect.ValueOf(boxed).MethodByName("Reduce").Call([]reflect.Value{reflect.ValueOf(scan)})
	groups := int(binary.LittleEndian.Uint64(reply))
	// lo, hi; Sums (a length and k·d values); Counts (a length and k);
	// Inertia; Changed.
	groupBytes = 8 * (2 + 1 + k*d + 1 + k + 2)
	if groups != scan.NumGroups() || len(reply) != 16+groups*groupBytes {
		tb.Fatalf("reply of %d bytes for %d groups of %d, want %d groups", len(reply), groups, groupBytes, scan.NumGroups())
	}
	return enc.Bytes(), reply, bits(out[0], false, nil), groupBytes
}

// FuzzAbsorb: no reply may panic the coordinator's decoder or make it
// allocate what a length in the reply claims; a reply it accepts has
// exactly the shape its group count says. The seeds are a real
// kmeans/assign reply — which must merge to the local root — and that
// reply truncated at every byte, with a slice length off by one each
// way, with bytes after its trailer, and with a group count larger
// than it holds.
func FuzzAbsorb(f *testing.F) {
	arg, good, root, groupBytes := assignReply(f)
	coordinator := func() *fit.Shard { return &fit.Shard{Cols: 3} }
	got, _, err := fit.AbsorbReply("kmeans/assign", coordinator(), arg, good)
	if err != nil {
		f.Fatal(err)
	}
	if !sameBits(bits(reflect.ValueOf(got), false, nil), root) {
		f.Fatal("the absorbed reply differs from the local root")
	}

	with := func(off int, word uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[off:], word)
		return b
	}
	const sums, counts = 24, 24 + 8 + 6*8 // offsets of group 0's slice lengths
	hostile := [][]byte{
		with(sums, 5), with(sums, 7), with(counts, 1), with(counts, 3),
		append(append([]byte(nil), good...), 0),
		with(0, binary.LittleEndian.Uint64(good)+1), with(0, 1<<62),
	}
	for i := range good {
		hostile = append(hostile, good[:i])
	}
	f.Add(good)
	for _, reply := range hostile {
		if _, _, err := fit.AbsorbReply("kmeans/assign", coordinator(), arg, reply); err == nil {
			f.Fatalf("accepted a hostile %d-byte reply", len(reply))
		}
		f.Add(reply)
	}

	f.Fuzz(func(t *testing.T, reply []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := fit.AbsorbReply("kmeans/assign", coordinator(), arg, reply)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("absorbing a %d-byte reply allocated %d bytes", len(reply), grew)
		}
		if err != nil {
			return
		}
		if groups := binary.LittleEndian.Uint64(reply); uint64(len(reply)) != 16+groups*uint64(groupBytes) {
			t.Fatalf("accepted a %d-byte reply that claims %d groups of %d bytes", len(reply), groups, groupBytes)
		}
	})
}
