// Package core ties M3 together: it manages dataset lifecycles and
// picks storage backends so that algorithm code never changes when a
// dataset outgrows RAM. This is the paper's contribution in API form —
// the "M3" column of Table 1.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"m3/internal/dataset"
	"m3/internal/exec"
	"m3/internal/mat"
	"m3/internal/mmap"
	"m3/internal/store"
)

// Mode selects a storage backend explicitly.
type Mode int

const (
	// Auto maps files larger than the memory budget and loads
	// smaller ones onto the heap.
	Auto Mode = iota
	// InMemory always loads onto the Go heap (Table 1 "Original").
	InMemory
	// MemoryMapped always maps (Table 1 "M3").
	MemoryMapped
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case InMemory:
		return "in-memory"
	case MemoryMapped:
		return "memory-mapped"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterizes an Engine.
type Config struct {
	// MemoryBudget is the heap budget used by Auto mode to decide
	// between loading and mapping (default: 1 GiB).
	MemoryBudget int64
	// Mode overrides backend selection.
	Mode Mode
	// Advise is applied to new mappings (default Sequential — ML
	// training scans).
	Advise mmap.Advice
	// TempDir hosts scratch allocations (default os.TempDir()).
	TempDir string
	// Workers sizes the chunked-execution worker pool (internal/exec)
	// that parallel scans over this engine's matrices use: <= 0
	// selects runtime.NumCPU(), 1 forces sequential scans. The engine
	// threads it through to trainers via Workers(); results are
	// identical for every value.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 1 << 30
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
	return c
}

// Engine is an M3 session: it opens datasets with transparent backend
// selection and tracks every resource for a single Close.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	open   []closer
	stats  ScratchStats

	// releases is atomic (not under mu): ScratchMatrix.Close runs
	// inside Engine.Close's resource loop, which holds mu.
	releases atomic.Int64
}

// allocSeq numbers mapped temp files across every engine in the
// process (see allocMapped).
var allocSeq atomic.Int64

// ScratchStats counts the engine's intermediate materializations —
// the traffic operator fusion exists to eliminate. Allocs and Bytes
// cover every AllocScratch call (heap or mapped); MappedBytes is the
// subset written through temp-file mappings, i.e. scratch disk
// traffic. Counters are cumulative for the engine's lifetime.
type ScratchStats struct {
	// Allocs is the number of AllocScratch calls that succeeded.
	Allocs int64
	// Bytes is the total size of those allocations.
	Bytes int64
	// MappedBytes is the portion of Bytes backed by temp-file
	// mappings (out-of-core scratch).
	MappedBytes int64
	// Releases is the number of scratch matrices whose backing has
	// been freed (Close or Release, including the engine's own Close).
	// Allocs - Releases is the engine's live scratch count.
	Releases int64
}

// Stats returns a snapshot of the engine's scratch counters.
func (e *Engine) Stats() ScratchStats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.Releases = e.releases.Load()
	return s
}

// countScratch records a successful scratch materialization.
func (e *Engine) countScratch(rows, cols int, mapped bool) {
	n := int64(rows) * int64(cols) * 8
	e.mu.Lock()
	e.stats.Allocs++
	e.stats.Bytes += n
	if mapped {
		e.stats.MappedBytes += n
	}
	e.mu.Unlock()
}

type closer interface{ Close() error }

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("core: engine is closed")

// Workers returns the resolved chunked-execution pool size for this
// engine (Config.Workers, with <= 0 meaning runtime.NumCPU()).
func (e *Engine) Workers() int { return exec.Workers(e.cfg.Workers) }

// forget removes a resource from the Close list — used by scratch
// matrices released early, so a long-lived engine running many
// pipeline fits does not accumulate dead closers. A no-op when the
// resource is not tracked (heap scratches) or the engine is closed
// (Close owns the list then).
func (e *Engine) forget(c closer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	for i, o := range e.open {
		if o == c {
			e.open = append(e.open[:i], e.open[i+1:]...)
			return
		}
	}
}

// track registers a resource for Close. If the engine was closed
// between resource creation and registration, the resource is closed
// here — under the same lock that Close holds, so exactly one of
// track and Close releases it — and ErrClosed is returned, joined
// with any error from the release so nothing is silently dropped.
func (e *Engine) track(c closer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.Join(ErrClosed, c.Close())
	}
	e.open = append(e.open, c)
	return nil
}

// checkOpen is the advisory fast-fail used at operation entry; track
// remains the authoritative gate for resources created afterwards.
func (e *Engine) checkOpen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	return nil
}

// Table is an opened dataset: a feature matrix plus optional labels,
// backed by heap or mapping according to the engine's policy.
type Table struct {
	// X is the feature matrix.
	X *mat.Dense
	// Labels is the label vector (nil if the file has none).
	Labels []float64
	// Mapped reports whether the backing is a memory mapping.
	Mapped bool
	// Path is the source file.
	Path string

	res closer
}

// Close releases the table's backing store (idempotent).
func (t *Table) Close() error {
	if t.res == nil {
		return nil
	}
	err := t.res.Close()
	t.res = nil
	return err
}

type heapTable struct{}

func (heapTable) Close() error { return nil }

// Open opens an M3 dataset file, choosing the backend per the
// engine's mode, and returns its matrix view.
func (e *Engine) Open(path string) (*Table, error) {
	if err := e.checkOpen(); err != nil {
		return nil, err
	}

	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	mode := e.cfg.Mode
	if mode == Auto {
		if fi.Size() > e.cfg.MemoryBudget {
			mode = MemoryMapped
		} else {
			mode = InMemory
		}
	}

	switch mode {
	case InMemory:
		x, labels, hdr, err := dataset.ReadAll(path)
		if err != nil {
			return nil, err
		}
		t := &Table{
			X:      mat.NewDenseFrom(x, int(hdr.Rows), int(hdr.Cols)),
			Labels: labels,
			Path:   path,
			res:    heapTable{},
		}
		t.X.SetWorkersHint(e.cfg.Workers)
		if err := e.track(t); err != nil {
			return nil, err
		}
		return t, nil

	case MemoryMapped:
		ds, err := dataset.Open(path)
		if err != nil {
			return nil, err
		}
		if err := ds.Advise(e.cfg.Advise); err != nil {
			ds.Close()
			return nil, err
		}
		t := &Table{
			X:      ds.X(),
			Labels: ds.Labels(),
			Mapped: true,
			Path:   path,
			res:    ds,
		}
		t.X.SetWorkersHint(e.cfg.Workers)
		if err := e.track(t); err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("core: unknown mode %v", mode)
}

// Alloc creates a rows×cols scratch matrix backed by a file-backed
// mapping in the engine's temp dir — the paper's mmapAlloc: a buffer
// that can exceed RAM. The matrix is writable; the backing file is
// removed on Close.
func (e *Engine) Alloc(rows, cols int) (*mat.Dense, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("core: non-positive dimensions %dx%d", rows, cols)
	}
	d, sc, err := e.allocMapped(rows, cols)
	if err != nil {
		return nil, err
	}
	if err := e.trackAlloc(sc, sc.path); err != nil {
		return nil, err
	}
	return d, nil
}

// allocMapped creates the temp-file-backed matrix Alloc and
// AllocScratch share: closed-check before the backing file exists (a
// closed engine must never leave scratch files behind), unique temp
// path, mapping, and teardown of a half-built allocation. The caller
// registers its own closer around the returned scratch via trackAlloc.
func (e *Engine) allocMapped(rows, cols int) (*mat.Dense, *scratch, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, nil, ErrClosed
	}
	// The sequence is process-global, not per-engine: engines sharing
	// a temp dir (e.g. several in-process dist workers) must never
	// reuse a live allocation's path — CreateMapped truncates, which
	// would shear pages out from under the other engine's mapping.
	path := filepath.Join(e.cfg.TempDir, fmt.Sprintf("m3-alloc-%d-%d.bin", os.Getpid(), allocSeq.Add(1)))
	e.mu.Unlock()

	ms, err := store.CreateMapped(path, int64(rows)*int64(cols))
	if err != nil {
		// The file exists by the time truncating or mapping it fails.
		os.Remove(path)
		return nil, nil, err
	}
	sc := &scratch{Mapped: ms, path: path}
	d, err := mat.NewDenseStore(ms, rows, cols)
	if err != nil {
		sc.Close()
		return nil, nil, err
	}
	d.SetWorkersHint(e.cfg.Workers)
	return d, sc, nil
}

// trackAlloc registers an allocation's closer for Engine.Close. If
// registration lost the race with Close, track already released the
// resource (unmapping and removing the file) under the engine lock;
// the fallback remove only covers removal failures surfaced through
// the joined error.
func (e *Engine) trackAlloc(c closer, path string) error {
	err := e.track(c)
	if err != nil {
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			err = errors.Join(err, rmErr)
		}
	}
	return err
}

// ScratchMatrix is an engine-allocated intermediate matrix — the
// materialization target of a transformer stage. Unlike Alloc, the
// backend is chosen by the engine's mode: heap when the matrix fits
// the memory budget (or the engine is InMemory), a file-backed
// mapping in the temp dir when it would exceed it (or the engine is
// MemoryMapped) — so a preprocess→train pipeline stays out-of-core at
// every stage exactly when its inputs do. Release frees the backing
// early (pipelines release each intermediate as soon as the next
// stage has consumed it); an unreleased scratch is freed by
// Engine.Close like every other resource.
type ScratchMatrix struct {
	// X is the writable rows×cols matrix.
	X *mat.Dense
	// Mapped reports whether the backing is a temp-file mapping.
	Mapped bool

	eng      *Engine
	mu       sync.Mutex
	released bool
	res      closer // backing mapping + temp file; nil for heap
}

// Close frees the backing store and removes the temp file (mapped
// scratches). Idempotent, so the engine's Close after an early
// Release is a no-op. It does not untrack the scratch; use Release.
func (s *ScratchMatrix) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return nil
	}
	s.released = true
	if s.eng != nil {
		s.eng.releases.Add(1)
	}
	if s.res == nil {
		return nil
	}
	return s.res.Close()
}

// Release frees the backing store and untracks the scratch from its
// engine, so releasing intermediates eagerly keeps the engine's
// resource list — and the temp dir — bounded. Idempotent.
func (s *ScratchMatrix) Release() error {
	err := s.Close()
	if s.eng != nil {
		s.eng.forget(s)
	}
	return err
}

// AllocScratch allocates a rows×cols intermediate matrix through the
// engine's backend policy: InMemory engines (and Auto engines when
// the matrix fits MemoryBudget) return a heap matrix with nothing to
// clean up; MemoryMapped engines (and Auto above the budget) return a
// temp-file mapping exactly like Alloc. Transformer stages
// materialize through this call, which is what keeps a pipeline's
// intermediates out-of-core when they outgrow RAM.
func (e *Engine) AllocScratch(rows, cols int) (*ScratchMatrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("core: non-positive dimensions %dx%d", rows, cols)
	}
	mode := e.cfg.Mode
	if mode == Auto {
		if int64(rows)*int64(cols)*8 > e.cfg.MemoryBudget {
			mode = MemoryMapped
		} else {
			mode = InMemory
		}
	}

	if mode == InMemory {
		if err := e.checkOpen(); err != nil {
			return nil, err
		}
		d := mat.NewDense(rows, cols)
		d.SetWorkersHint(e.cfg.Workers)
		e.countScratch(rows, cols, false)
		return &ScratchMatrix{X: d, eng: e}, nil
	}

	d, sc, err := e.allocMapped(rows, cols)
	if err != nil {
		return nil, err
	}
	sm := &ScratchMatrix{X: d, Mapped: true, eng: e, res: sc}
	if err := e.trackAlloc(sm, sc.path); err != nil {
		return nil, err
	}
	e.countScratch(rows, cols, true)
	return sm, nil
}

// scratch couples a mapped store with its backing file for cleanup.
type scratch struct {
	*store.Mapped
	path string
}

// Close unlinks the file and then drops the mapping unsynced: nothing
// can read a scratch after its release, so writing its dirty pages back
// first (what Mapped.Close does for datasets) is wasted disk traffic.
func (s *scratch) Close() error {
	err := os.Remove(s.path)
	if os.IsNotExist(err) {
		err = nil
	}
	if dErr := s.Mapped.Discard(); err == nil {
		err = dErr
	}
	return err
}

// Close releases every resource the engine opened, returning the
// first error. It is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var first error
	for i := len(e.open) - 1; i >= 0; i-- {
		if err := e.open[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	e.open = nil
	return first
}
