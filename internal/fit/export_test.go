package fit

import (
	"reflect"
	"unsafe"
)

// DeclaredAggregates returns, for every declared pass, the constructor
// of its exec.Aggregate[T] (boxed) at a gob-encoded argument.
func DeclaredAggregates() map[string]func(sh *Shard, arg []byte) (any, error) {
	out := make(map[string]func(sh *Shard, arg []byte) (any, error), len(passes))
	for name, p := range passes {
		out[name] = p.aggregate
	}
	return out
}

// EncodeState appends the wire encoding of state, a (boxed) state of
// the named pass, to b: the codec Declare compiles for its type.
func EncodeState(name string, b []byte, state any) []byte {
	return compileCodec(name, reflect.TypeOf(state)).encode(b, addressOf(state))
}

// DecodeState decodes the front of b into state, a (boxed) state of the
// named pass, and returns the rest of b. State is a pointer or a slice,
// so the decoded values land where the caller sees them.
func DecodeState(name string, b []byte, state any) ([]byte, error) {
	return compileCodec(name, reflect.TypeOf(state)).decode(b, addressOf(state))
}

// addressOf returns the address of a copy of state's value.
func addressOf(state any) unsafe.Pointer {
	v := reflect.ValueOf(state)
	p := reflect.New(v.Type())
	p.Elem().Set(v)
	return p.UnsafePointer()
}

// AbsorbReply merges one worker's reply to the named pass, at a
// gob-encoded argument, into a new root built against sh, and returns
// the root (boxed) and the reply's stall.
func AbsorbReply(name string, sh *Shard, arg, reply []byte) (any, float64, error) {
	return passes[name].absorb(sh, arg, reply)
}
