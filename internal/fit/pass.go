package fit

// Data passes, declared once and run anywhere. An algorithm names each
// scan it makes over the rows (Declare) and builds it, from a Shard and
// a gob-able argument, as an exec.Aggregate. Reduce then runs that
// declaration wherever the rows are: a Local source folds it over the
// matrix in process; a remote source (internal/dist) ships the
// argument, has every worker fold its shard to merge-group states
// (Serve) and hands the replies back in shard order to be merged here.
// Both are the same sequence of floating-point merges, so a trainer
// written against a Source gives the same bits on either.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"m3/internal/exec"
	"m3/internal/mat"
)

// Pass is a declared data pass: the name a worker looks it up by (also
// its label in the m3_dist_* series and round/worker spans) and the
// constructor of its aggregate.
type Pass[A, T any] struct {
	Name string
	// New builds the aggregate at arg. Its block kernel reads sh's
	// label views and scratch; Alloc and Merge depend only on sh.Cols
	// and arg, which is what lets a coordinator build it against a
	// shard with no rows.
	New func(sh *Shard, arg A) (exec.Aggregate[T], error)

	// codec is T's, compiled by Declare (nil for a Pass built by hand).
	codec *stateCodec
}

// declared is one registered pass.
type declared struct {
	// serve is the worker half: fold the shard's scan to merge-group
	// states and append their encoding to reply.
	serve func(sh *Shard, s exec.RowScan, arg, reply []byte) ([]byte, error)
	// aggregate builds the pass's exec.Aggregate[T] (boxed) at an
	// encoded argument, and absorb merges one reply into a new root
	// (returned boxed): what the tests that hold every declared pass to
	// the Reset contract and to the wire walk.
	aggregate func(sh *Shard, arg []byte) (any, error)
	absorb    func(sh *Shard, arg, reply []byte) (any, float64, error)
}

// passes maps names to declared passes. Filled by Declare from
// package-level initializers only.
var passes = map[string]declared{}

// Declare names a pass and registers its worker half. Call it from a
// package-level var initializer. A duplicate name panics, and so does a
// state the wire cannot carry: one whose exported fields (or itself,
// when it is not a struct or a pointer to one) are anything but
// float64, int, []float64 and []int.
func Declare[A, T any](name string, build func(sh *Shard, arg A) (exec.Aggregate[T], error)) Pass[A, T] {
	if _, dup := passes[name]; dup {
		panic("fit: pass " + name + " declared twice")
	}
	codec := compileCodec(name, reflect.TypeFor[T]())
	at := func(sh *Shard, argBytes []byte) (exec.Aggregate[T], error) {
		var arg A
		if err := gob.NewDecoder(bytes.NewReader(argBytes)).Decode(&arg); err != nil {
			return exec.Aggregate[T]{}, fmt.Errorf("fit: decode %s argument: %w", name, err)
		}
		return build(sh, arg)
	}
	serve := func(sh *Shard, s exec.RowScan, argBytes, reply []byte) ([]byte, error) {
		agg, err := at(sh, argBytes)
		if err != nil {
			return reply, err
		}
		// Each group is encoded as the scan emits it, so the worker
		// holds one group state, not one per group.
		reply = binary.LittleEndian.AppendUint64(reply, uint64(s.NumGroups()))
		stall, err := agg.EachGroup(s, func(lo, hi int, state T) {
			reply = binary.LittleEndian.AppendUint64(reply, uint64(lo))
			reply = binary.LittleEndian.AppendUint64(reply, uint64(hi))
			reply = codec.encode(reply, unsafe.Pointer(&state))
		})
		if err != nil {
			return reply, err
		}
		return binary.LittleEndian.AppendUint64(reply, math.Float64bits(stall)), nil
	}
	passes[name] = declared{
		serve:     serve,
		aggregate: func(sh *Shard, argBytes []byte) (any, error) { return at(sh, argBytes) },
		absorb: func(sh *Shard, argBytes, reply []byte) (any, float64, error) {
			agg, err := at(sh, argBytes)
			if err != nil {
				return nil, 0, err
			}
			root := agg.Alloc()
			stall, err := absorb(agg, codec, root, agg.OneAtATime(), reply)
			return root, stall, err
		},
	}
	return Pass[A, T]{Name: name, New: build, codec: codec}
}

// Serve runs the named pass over one shard's scan, appends its encoded
// merge-group states to reply and returns the extended buffer — the
// worker half of a remote Reduce. The scan must carry the global group
// height (RowScan.GroupRows). After an error the buffer holds a partial
// encoding and must be discarded.
func Serve(pass string, sh *Shard, s exec.RowScan, arg, reply []byte) ([]byte, error) {
	p, ok := passes[pass]
	if !ok {
		return reply, fmt.Errorf("fit: unknown pass %q", pass)
	}
	return p.serve(sh, s, arg, reply)
}

// absorb merges one worker's reply into root, group by group, each
// decoded into a state from fresh. It reads the reply in place: a group
// costs no allocation beyond what fresh makes, and no length the reply
// claims is allocated.
func absorb[T any](agg exec.Aggregate[T], codec *stateCodec, root T, fresh func() T, reply []byte) (float64, error) {
	if len(reply) < 8 {
		return 0, codec.truncated()
	}
	groups, b := binary.LittleEndian.Uint64(reply), reply[8:]
	for i := uint64(0); i < groups; i++ {
		if len(b) < 16 {
			return 0, codec.truncated()
		}
		b = b[16:] // lo, hi: the groups arrive in row order
		state := fresh()
		var err error
		if b, err = codec.decode(b, unsafe.Pointer(&state)); err != nil {
			return 0, fmt.Errorf("fit: decode %s group %d of %d: %w", codec.pass, i, groups, err)
		}
		agg.Merge(root, state)
	}
	switch {
	case len(b) < 8:
		return 0, codec.truncated()
	case len(b) > 8:
		return 0, fmt.Errorf("fit: decode %s reply: %d bytes after the trailer", codec.pass, len(b)-8)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Round is one pass at one argument in the form a Source can run
// without knowing the pass's state type.
type Round struct {
	// Pass is the declared name; Arg its gob-able argument value.
	Pass string
	Arg  any
	// Fold runs the pass over an in-process scan, to the root.
	Fold func(s exec.RowScan) (stall float64, err error)
	// Absorb merges one shard's Serve reply into the root. A remote
	// source calls it once per shard, in ascending shard order.
	Absorb func(reply []byte) (stall float64, err error)
}

// Source is where a fit's rows are.
type Source interface {
	// Dims returns the global row and column counts.
	Dims() (rows, cols int)
	// Shard returns what pass constructors build against here: the
	// rows' own shard in process, an empty one of the same width and
	// labelledness on a coordinator.
	Shard() *Shard
	// Run executes one round and returns the scans' simulated stall.
	Run(ctx context.Context, r Round) (stall float64, err error)
}

// Reduce runs pass p at arg over src and returns the root state. After
// an error (cancellation included) the root is partial and must be
// discarded.
func Reduce[A, T any](ctx context.Context, src Source, p Pass[A, T], arg A) (T, float64, error) {
	var root T
	agg, err := p.New(src.Shard(), arg)
	if err != nil {
		return root, 0, err
	}
	// A remote round decodes every group of every reply into one state,
	// reset between groups — or, for a state with no Reset, into a new
	// one each.
	fresh := agg.OneAtATime()
	codec := p.codec
	if codec == nil {
		codec = compileCodec(p.Name, reflect.TypeFor[T]())
	}
	merging := false
	stall, err := src.Run(ctx, Round{
		Pass: p.Name,
		Arg:  arg,
		Fold: func(s exec.RowScan) (stall float64, err error) {
			root, stall, err = agg.Reduce(s)
			return stall, err
		},
		Absorb: func(reply []byte) (float64, error) {
			if !merging {
				root, merging = agg.Alloc(), true
			}
			return absorb(agg, codec, root, fresh, reply)
		},
	})
	return root, stall, err
}

// Local is the in-process Source: one shard covering every row of a
// (heap, mapped or fused) matrix.
type Local struct {
	x       *mat.Dense
	workers int
	shard   Shard
}

// NewLocal wraps x and its labels (nil when unlabelled) for a fit.
// workers <= 0 defers to the matrix's engine hint, then NumCPU.
func NewLocal(x *mat.Dense, labels []float64, workers int) *Local {
	rows, cols := x.Dims()
	return &Local{x: x, workers: workers, shard: Shard{Rows: rows, Cols: cols, Labels: labels}}
}

// NewLocalClasses is NewLocal for callers that already hold the labels
// as class indices.
func NewLocalClasses(x *mat.Dense, classIDs []int, workers int) *Local {
	l := NewLocal(x, nil, workers)
	l.shard.ClassIDs = classIDs
	return l
}

// Matrix returns the matrix l scans.
func (l *Local) Matrix() *mat.Dense { return l.x }

// Dims implements Source.
func (l *Local) Dims() (int, int) { return l.shard.Rows, l.shard.Cols }

// Shard implements Source.
func (l *Local) Shard() *Shard { return &l.shard }

// Run implements Source with one blocked scan of the matrix.
func (l *Local) Run(ctx context.Context, r Round) (float64, error) {
	return r.Fold(l.x.ScanCtx(ctx, l.workers))
}
