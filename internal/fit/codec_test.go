package fit

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestPortableCodecMatchesView: the value-by-value encoding that
// big-endian hosts use is the byte view little-endian hosts use, leaf
// by leaf and for a whole state, and each path decodes the other's
// bytes to the same bits.
func TestPortableCodecMatchesView(t *testing.T) {
	if !intsAreWire {
		t.Skip("the view is not the wire encoding on this host")
	}
	fs := []float64{0, math.Copysign(0, -1), 1, math.Pi, math.Inf(-1), math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x0102030405060708)}
	xs := []int{0, 1, -1, math.MaxInt, math.MinInt, 0x0102030405060708}
	if view, portable := floatBytes(fs), appendFloats(nil, fs); !bytes.Equal(view, portable) {
		t.Errorf("floats: view %x, portable encoding %x", view, portable)
	}
	if view, portable := intBytes(xs), appendInts(nil, xs); !bytes.Equal(view, portable) {
		t.Errorf("ints: view %x, portable encoding %x", view, portable)
	}

	type state struct {
		Loss   float64
		Grad   []float64
		Counts []int
		N      int
	}
	c := compileCodec("test/portable", reflect.TypeFor[*state]())
	src := &state{Loss: math.NaN(), Grad: fs, Counts: xs, N: math.MinInt}
	view := c.encode(nil, unsafe.Pointer(&src))
	hostLittleEndian, intsAreWire = false, false
	defer func() { hostLittleEndian, intsAreWire = true, true }()
	if portable := c.encode(nil, unsafe.Pointer(&src)); !bytes.Equal(view, portable) {
		t.Fatalf("state: view %x, portable encoding %x", view, portable)
	}
	dst := &state{Grad: make([]float64, len(fs)), Counts: make([]int, len(xs))}
	if rest, err := c.decode(view, unsafe.Pointer(&dst)); err != nil || len(rest) != 0 {
		t.Fatalf("portable decode: %d bytes left, err %v", len(rest), err)
	}
	if math.Float64bits(dst.Loss) != math.Float64bits(src.Loss) || dst.N != src.N {
		t.Errorf("portable decode: scalars %v %d, want %v %d", dst.Loss, dst.N, src.Loss, src.N)
	}
	for i := range fs {
		if math.Float64bits(dst.Grad[i]) != math.Float64bits(fs[i]) {
			t.Errorf("portable decode: Grad[%d] = %#x, want %#x", i, math.Float64bits(dst.Grad[i]), math.Float64bits(fs[i]))
		}
	}
	if !reflect.DeepEqual(dst.Counts, xs) {
		t.Errorf("portable decode: Counts %v, want %v", dst.Counts, xs)
	}
}
