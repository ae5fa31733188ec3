package fit

// The state codec. A worker's reply to a reduce is raw little-endian
// words, not gob:
//
//	u64 groups
//	groups × (i64 lo, i64 hi, state)
//	f64 stall
//
// A state is its leaves in declaration order — the value itself, or the
// exported fields of the struct it is or points to — and a leaf is a
// float64 (its bits), an int (as an int64), or a []float64 or []int (a
// u64 length, then the elements). The stall closes the reply because
// the groups are encoded while the scan that accumulates it is still
// running. Every leaf is always written, and a decoder writes into a
// state of the receiver's own shape: a slice length that differs from
// it is an error, so a peer's reply never makes the coordinator
// allocate.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"unsafe"
)

// leafKind is what one leaf of a state is.
type leafKind uint8

const (
	leafFloat leafKind = iota
	leafInt
	leafFloats
	leafInts
)

// leaf is one encoded value, at an offset from the state's base.
type leaf struct {
	name string
	off  uintptr
	kind leafKind
}

// stateCodec writes and reads the states of one pass. Declare compiles
// it once, by reflection over the state type; encoding and decoding
// then walk a flat list of leaves and allocate nothing.
type stateCodec struct {
	pass string
	// deref is set when the state is a pointer: the leaves lie in the
	// value it points to.
	deref  bool
	leaves []leaf
}

// compileCodec builds the codec of state type t for the named pass. It
// panics, naming the pass and the field, on a state it cannot encode:
// a declared pass fails at init, never in the middle of a fit.
func compileCodec(pass string, t reflect.Type) *stateCodec {
	c := &stateCodec{pass: pass}
	if t.Kind() == reflect.Pointer {
		c.deref, t = true, t.Elem()
	}
	if t.Kind() != reflect.Struct {
		c.leaves = []leaf{{name: "state", kind: leafOf(pass, "the state", t)}}
		return c
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue // per-block scratch: never sent
		}
		c.leaves = append(c.leaves, leaf{name: f.Name, off: f.Offset, kind: leafOf(pass, "field "+t.String()+"."+f.Name, f.Type)})
	}
	return c
}

// leafOf returns the kind of leaf a value of type t is; what names it
// in the panic.
func leafOf(pass, what string, t reflect.Type) leafKind {
	switch t.Kind() {
	case reflect.Float64:
		return leafFloat
	case reflect.Int:
		return leafInt
	case reflect.Slice:
		switch t.Elem().Kind() {
		case reflect.Float64:
			return leafFloats
		case reflect.Int:
			return leafInts
		}
	}
	panic(fmt.Sprintf("fit: pass %s: %s is a %s; a state holds float64, int, []float64 and []int", pass, what, t))
}

// base returns the address the leaf offsets are relative to, given p,
// the address of a state.
func (c *stateCodec) base(p unsafe.Pointer) unsafe.Pointer {
	if !c.deref {
		return p
	}
	if p = *(*unsafe.Pointer)(p); p == nil {
		panic("fit: pass " + c.pass + ": nil state")
	}
	return p
}

// encode appends the encoding of the state at p to b.
func (c *stateCodec) encode(b []byte, p unsafe.Pointer) []byte {
	p = c.base(p)
	for _, l := range c.leaves {
		at := unsafe.Add(p, l.off)
		switch l.kind {
		case leafFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*(*float64)(at)))
		case leafInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(*(*int)(at)))
		case leafFloats:
			fs := *(*[]float64)(at)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(fs)))
			if hostLittleEndian {
				b = append(b, floatBytes(fs)...)
			} else {
				b = appendFloats(b, fs)
			}
		case leafInts:
			xs := *(*[]int)(at)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(xs)))
			if intsAreWire {
				b = append(b, intBytes(xs)...)
			} else {
				b = appendInts(b, xs)
			}
		}
	}
	return b
}

// decode reads one state from the front of b into the state at p and
// returns the rest of b. The state's slices keep their memory: the
// encoded lengths must equal theirs.
func (c *stateCodec) decode(b []byte, p unsafe.Pointer) ([]byte, error) {
	p = c.base(p)
	for _, l := range c.leaves {
		at := unsafe.Add(p, l.off)
		if len(b) < 8 {
			return nil, c.short(l)
		}
		w := binary.LittleEndian.Uint64(b)
		b = b[8:]
		switch l.kind {
		case leafFloat:
			*(*float64)(at) = math.Float64frombits(w)
		case leafInt:
			if v := int64(w); int64(int(v)) == v {
				*(*int)(at) = int(v)
			} else {
				return nil, fmt.Errorf("fit: %s state: %s = %d overflows int", c.pass, l.name, v)
			}
		case leafFloats:
			dst := *(*[]float64)(at)
			if err := c.fits(l, w, len(dst), b); err != nil {
				return nil, err
			}
			if hostLittleEndian {
				copy(floatBytes(dst), b)
			} else {
				readFloats(dst, b)
			}
			b = b[8*len(dst):]
		case leafInts:
			dst := *(*[]int)(at)
			if err := c.fits(l, w, len(dst), b); err != nil {
				return nil, err
			}
			if intsAreWire {
				copy(intBytes(dst), b)
			} else if err := c.readInts(l, dst, b); err != nil {
				return nil, err
			}
			b = b[8*len(dst):]
		}
	}
	return b, nil
}

// fits checks an encoded slice length n against the state's, and that
// b holds its elements.
func (c *stateCodec) fits(l leaf, n uint64, have int, b []byte) error {
	if n != uint64(have) {
		return fmt.Errorf("fit: %s state: %s has %d values, the state %d", c.pass, l.name, n, have)
	}
	if len(b)/8 < have {
		return c.short(l)
	}
	return nil
}

func (c *stateCodec) truncated() error {
	return fmt.Errorf("fit: decode %s reply: %w", c.pass, io.ErrUnexpectedEOF)
}

func (c *stateCodec) short(l leaf) error {
	return fmt.Errorf("fit: %s state: %s: %w", c.pass, l.name, io.ErrUnexpectedEOF)
}

// readInts is the portable decoding of a []int leaf, for hosts where
// an int's memory is not its encoding.
func (c *stateCodec) readInts(l leaf, dst []int, b []byte) error {
	for i := range dst {
		v := int64(binary.LittleEndian.Uint64(b[8*i:]))
		if int64(int(v)) != v {
			return fmt.Errorf("fit: %s state: %s[%d] = %d overflows int", c.pass, l.name, i, v)
		}
		dst[i] = int(v)
	}
	return nil
}

// hostLittleEndian reports whether a float64 in memory is already its
// wire encoding; intsAreWire, whether an int's is (it is also 64 bits).
var (
	hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	intsAreWire      = hostLittleEndian && bits.UintSize == 64
)

// floatBytes views fs as its bytes in memory.
func floatBytes(fs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs)*8)
}

// intBytes views xs as its bytes in memory; only when intsAreWire.
func intBytes(xs []int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*8)
}

// appendFloats appends the little-endian encoding of fs to b, value by
// value: what floatBytes is on a little-endian host.
func appendFloats(b []byte, fs []float64) []byte {
	for _, v := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// appendInts appends the little-endian int64 encoding of xs to b.
func appendInts(b []byte, xs []int) []byte {
	for _, v := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// readFloats fills dst from b's little-endian encoding, value by value.
func readFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
