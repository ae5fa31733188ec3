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
	"encoding/gob"
	"fmt"

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
}

// served maps pass names to the worker half of each declared pass.
// Filled by Declare from package-level initializers only.
var served = map[string]func(sh *Shard, s exec.RowScan, arg []byte) ([]byte, error){}

// Declare names a pass and registers its worker half. Call it from a
// package-level var initializer; a duplicate name panics.
func Declare[A, T any](name string, build func(sh *Shard, arg A) (exec.Aggregate[T], error)) Pass[A, T] {
	if _, dup := served[name]; dup {
		panic("fit: pass " + name + " declared twice")
	}
	served[name] = func(sh *Shard, s exec.RowScan, argBytes []byte) ([]byte, error) {
		var arg A
		if err := gob.NewDecoder(bytes.NewReader(argBytes)).Decode(&arg); err != nil {
			return nil, fmt.Errorf("fit: decode %s argument: %w", name, err)
		}
		agg, err := build(sh, arg)
		if err != nil {
			return nil, err
		}
		groups, stall, err := agg.Groups(s)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		err = enc.Encode(replyHeader{Groups: len(groups), Stall: stall})
		for i := 0; err == nil && i < len(groups); i++ {
			err = enc.Encode(&groups[i])
		}
		if err != nil {
			return nil, fmt.Errorf("fit: encode %s groups: %w", name, err)
		}
		return buf.Bytes(), nil
	}
	return Pass[A, T]{Name: name, New: build}
}

// Serve runs the named pass over one shard's scan and returns its
// encoded merge-group states — the worker half of a remote Reduce. The
// scan must carry the global group height (RowScan.GroupRows).
func Serve(pass string, sh *Shard, s exec.RowScan, arg []byte) ([]byte, error) {
	run, ok := served[pass]
	if !ok {
		return nil, fmt.Errorf("fit: unknown pass %q", pass)
	}
	return run(sh, s, arg)
}

// replyHeader opens a worker's reply; Groups exec.GroupPartial values
// follow it on the same gob stream, in ascending row order.
type replyHeader struct {
	Groups int
	Stall  float64
}

// absorb merges one worker's reply into root, group by group. Each
// group decodes into a freshly allocated zero state rather than a nil
// one: gob omits zero-valued fields, so a group whose state is all
// zero would otherwise arrive as no state at all.
func absorb[T any](agg exec.Aggregate[T], root T, reply []byte) (float64, error) {
	dec := gob.NewDecoder(bytes.NewReader(reply))
	var h replyHeader
	if err := dec.Decode(&h); err != nil {
		return 0, fmt.Errorf("fit: decode %s reply: %w", agg.Name, err)
	}
	for i := 0; i < h.Groups; i++ {
		g := exec.GroupPartial[T]{State: agg.Alloc()}
		if err := dec.Decode(&g); err != nil {
			return 0, fmt.Errorf("fit: decode %s group %d of %d: %w", agg.Name, i, h.Groups, err)
		}
		agg.Merge(root, g.State)
	}
	return h.Stall, nil
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
			return absorb(agg, root, reply)
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

// Dims implements Source.
func (l *Local) Dims() (int, int) { return l.shard.Rows, l.shard.Cols }

// Shard implements Source.
func (l *Local) Shard() *Shard { return &l.shard }

// Run implements Source with one blocked scan of the matrix.
func (l *Local) Run(ctx context.Context, r Round) (float64, error) {
	return r.Fold(l.x.ScanCtx(ctx, l.workers))
}
