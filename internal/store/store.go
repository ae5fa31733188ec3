// Package store defines M3's central abstraction: a linear array of
// float64 whose backing medium — Go heap, a real memory-mapped file,
// or a simulated paged address space — is invisible to the algorithms
// above it.
//
// This transparency is the paper's whole point: logistic regression
// and k-means are written once against mat.Dense, and switching a
// dataset from in-memory to out-of-core is a one-line change of
// backend (Table 1).
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"m3/internal/mmap"
	"m3/internal/vm"
)

// ErrReadOnly is returned by write accessors of read-only stores.
var ErrReadOnly = errors.New("store: read-only")

// ConcurrentToucher is implemented by backends whose Touch accounting
// (and Data reads) are safe from multiple goroutines at once. The
// parallel execution layer (internal/exec) consults it: backends that
// do not implement it — or report false — are scanned by a single
// worker, which keeps order-dependent accounting (trace recorders)
// exact.
type ConcurrentToucher interface {
	// ConcurrentSafe reports whether Touch/TouchWrite may race.
	ConcurrentSafe() bool
}

// TouchStream is a per-scanner access handle: Touch/TouchWrite with
// the same element semantics as the owning Store, but with private
// sequential-detection state so one scanner's access pattern is
// invisible to the others.
type TouchStream interface {
	// Touch declares a read of elements [start, start+n) and returns
	// the simulated stall in seconds.
	Touch(start, n int) float64
	// TouchWrite declares a write of elements [start, start+n).
	TouchWrite(start, n int) float64
}

// StreamToucher is implemented by backends whose paging model keeps
// read-ahead state per stream (the simulated Paged store, mirroring
// the kernel's per-struct-file readahead). The parallel execution
// layer opens one stream per pool worker so concurrent block scans
// keep their sequentiality — interleaved faults from other workers do
// not reset a stream's read-ahead window.
type StreamToucher interface {
	// OpenStream returns a stream with fresh private read-ahead state
	// over the store's shared cache. Streams are safe for concurrent
	// use but are meant to be owned by a single scanner.
	OpenStream() TouchStream
}

// RangeAdviser is implemented by backends that can apply an madvise
// hint to a sub-range of elements — the hook block schedulers use to
// prefetch the next block (mmap.WillNeed) while the current one is
// being computed on.
type RangeAdviser interface {
	// AdviseRange hints the access pattern for elements
	// [start, start+n).
	AdviseRange(a mmap.Advice, start, n int) error
}

// Stats summarizes access activity for a store. Real backends report
// best-effort OS numbers; the paged backend reports exact simulated
// counts.
type Stats struct {
	// BytesTouched counts bytes of element accesses routed through
	// Touch/TouchWrite.
	BytesTouched int64
	// MajorFaults and BytesRead are populated by the paged backend.
	MajorFaults uint64
	BytesRead   int64
	// StallSeconds is simulated disk stall (paged backend only).
	StallSeconds float64
	// ResidentBytes is the currently RAM-resident portion, when the
	// backend can determine it (mmap via mincore, paged exactly).
	ResidentBytes int64
}

// Store is a 1-D float64 array with access-pattern hooks.
//
// Touch and TouchWrite declare an upcoming access to elements
// [start, start+n); they return the simulated stall in seconds (zero
// for real backends, where the hardware pays the cost instead).
// Algorithms call them once per row or block, not per element.
type Store interface {
	// Data returns the full element slice. It remains valid until
	// Close.
	Data() []float64
	// Len returns the number of elements.
	Len() int
	// Writable reports whether element stores are permitted.
	Writable() bool
	// Touch declares a read of elements [start, start+n).
	Touch(start, n int) float64
	// TouchWrite declares a write of elements [start, start+n).
	TouchWrite(start, n int) float64
	// Advise hints the expected access pattern.
	Advise(a mmap.Advice) error
	// Stats snapshots access statistics.
	Stats() Stats
	// Close releases resources. The Data slice is invalid afterwards.
	Close() error
}

// --- Heap backend ---------------------------------------------------

// Heap is the ordinary in-memory baseline: a plain slice with no-op
// paging hooks. It is what "Original" code in Table 1 uses.
type Heap struct {
	data    []float64
	touched atomic.Int64
}

// NewHeap allocates an n-element heap store.
func NewHeap(n int) *Heap {
	return &Heap{data: make([]float64, n)}
}

// FromSlice wraps an existing slice without copying.
func FromSlice(s []float64) *Heap {
	return &Heap{data: s}
}

// Data returns the underlying slice.
func (h *Heap) Data() []float64 { return h.data }

// Len returns the element count.
func (h *Heap) Len() int { return len(h.data) }

// Writable always reports true for heap stores.
func (h *Heap) Writable() bool { return true }

// Touch records the access for statistics and returns zero stall.
func (h *Heap) Touch(start, n int) float64 {
	h.touched.Add(int64(n) * 8)
	return 0
}

// TouchWrite records the access and returns zero stall.
func (h *Heap) TouchWrite(start, n int) float64 {
	h.touched.Add(int64(n) * 8)
	return 0
}

// Advise is a no-op for heap memory.
func (h *Heap) Advise(mmap.Advice) error { return nil }

// ConcurrentSafe reports true: heap accounting is atomic.
func (h *Heap) ConcurrentSafe() bool { return true }

// Stats reports bytes touched; heap data is always resident.
func (h *Heap) Stats() Stats {
	return Stats{BytesTouched: h.touched.Load(), ResidentBytes: int64(len(h.data)) * 8}
}

// Close drops the reference to the slice.
func (h *Heap) Close() error {
	h.data = nil
	return nil
}

// --- Mapped backend (real mmap) --------------------------------------

// Mapped is the real M3 backend: elements live in a memory-mapped
// file and the operating system pages them.
type Mapped struct {
	region  *mmap.Region
	data    []float64
	off     int64 // byte offset of data[0] within the region
	view    bool  // region owned by someone else; Close must not unmap
	touched atomic.Int64
}

// OpenMapped maps an existing file of float64 values read-only.
func OpenMapped(path string) (*Mapped, error) {
	data, region, err := mmap.OpenFloat64(path)
	if err != nil {
		return nil, err
	}
	return &Mapped{region: region, data: data}, nil
}

// CreateMapped creates a file sized for n float64 elements and maps
// it read-write — the paper's mmapAlloc.
func CreateMapped(path string, n int64) (*Mapped, error) {
	data, region, err := mmap.AllocFloat64(path, n)
	if err != nil {
		return nil, err
	}
	return &Mapped{region: region, data: data}, nil
}

// ViewMapped wraps an element slice of an already-mapped region as a
// store, with byteOff giving the slice's byte offset within the
// region — how dataset files expose their payload (which sits behind
// a header page) with full paging hooks. The caller keeps ownership
// of the region: Close drops the reference without unmapping.
func ViewMapped(region *mmap.Region, data []float64, byteOff int64) *Mapped {
	return &Mapped{region: region, data: data, off: byteOff, view: true}
}

// OpenMappedRW maps an existing file read-write.
func OpenMappedRW(path string) (*Mapped, error) {
	region, err := mmap.OpenRW(path)
	if err != nil {
		return nil, err
	}
	data, err := region.Float64()
	if err != nil {
		region.Unmap()
		return nil, err
	}
	return &Mapped{region: region, data: data}, nil
}

// Data returns the mapped element view.
func (m *Mapped) Data() []float64 { return m.data }

// Len returns the element count.
func (m *Mapped) Len() int { return len(m.data) }

// Writable reports whether the mapping is read-write.
func (m *Mapped) Writable() bool { return m.region.Writable() }

// Touch records statistics; the OS services the actual fault.
func (m *Mapped) Touch(start, n int) float64 {
	m.touched.Add(int64(n) * 8)
	return 0
}

// TouchWrite records statistics.
func (m *Mapped) TouchWrite(start, n int) float64 {
	m.touched.Add(int64(n) * 8)
	return 0
}

// Advise forwards the hint to madvise(2) — for views, restricted to
// the viewed byte range.
func (m *Mapped) Advise(a mmap.Advice) error {
	if m.view {
		return m.region.AdviseRange(a, m.off, int64(len(m.data))*8)
	}
	return m.region.Advise(a)
}

// AdviseRange hints the pattern for elements [start, start+n) —
// typically mmap.WillNeed issued by the block scheduler for the block
// after the one in flight.
func (m *Mapped) AdviseRange(a mmap.Advice, start, n int) error {
	return m.region.AdviseRange(a, m.off+int64(start)*8, int64(n)*8)
}

// ConcurrentSafe reports true: faults are serviced by the OS and the
// byte accounting is atomic.
func (m *Mapped) ConcurrentSafe() bool { return true }

// Region exposes the underlying mapping for callers that need Sync
// or Residency directly.
func (m *Mapped) Region() *mmap.Region { return m.region }

// Stats reports bytes touched plus real page residency via mincore.
func (m *Mapped) Stats() Stats {
	s := Stats{BytesTouched: m.touched.Load()}
	if resident, _, err := m.region.Residency(); err == nil {
		s.ResidentBytes = int64(resident) * int64(mmap.PageSize())
	}
	return s
}

// Close unmaps the region (syncing dirty pages first). A view store
// only drops its reference; the region's owner unmaps.
func (m *Mapped) Close() error {
	m.data = nil
	if m.view {
		return nil
	}
	return m.region.Unmap()
}

// Discard is Close without the sync (mmap.Region.Discard): for a store
// whose backing file is already unlinked.
func (m *Mapped) Discard() error {
	m.data = nil
	if m.view {
		return nil
	}
	return m.region.Discard()
}

// --- Paged backend (simulated out-of-core) ---------------------------

// Paged couples a real element slice with a simulated virtual-memory
// subsystem, so out-of-core behaviour (RAM budget, LRU eviction,
// read-ahead, disk stalls) can be studied deterministically at any
// nominal scale. The element data itself is heap-resident — the
// simulation governs *timing*, not values.
//
// NominalBytes may exceed 8*len(data): the store then models a
// dataset of the nominal size whose access pattern is the scaled
// pattern of the real slice. This is how the 10–190 GB sweep of
// Figure 1a runs on a laptop: the computation runs on a congruent
// small matrix while paging is accounted at full scale.
//
// Paged is safe for concurrent use and implements StreamToucher: the
// parallel execution layer gives each pool worker a private stream
// (per-stream read-ahead over the shared simulated cache), so the
// multi-core out-of-core regime can be studied. Touch/TouchWrite on
// the store itself run on the simulator's default stream; a
// single-scanner sequence through them is exactly deterministic,
// while totals under concurrent streams depend on goroutine
// interleaving (values computed from the data never do).
type Paged struct {
	data  []float64
	mem   *vm.Memory
	scale float64 // nominal bytes per actual element byte
	ro    bool

	mu      sync.Mutex // guards tl and touched; mem locks itself
	tl      *vm.Timeline
	touched int64
}

// PagedConfig configures a Paged store.
type PagedConfig struct {
	// VM configures the simulated memory (RAM budget, disk, pages).
	VM vm.Config
	// NominalBytes is the modelled dataset size; if zero it defaults
	// to the actual data size (8 bytes per element).
	NominalBytes int64
	// ReadOnly marks the store read-only.
	ReadOnly bool
}

// NewPaged wraps data in a simulated paged store.
func NewPaged(data []float64, cfg PagedConfig) (*Paged, error) {
	actual := int64(len(data)) * 8
	if actual == 0 {
		return nil, fmt.Errorf("store: empty data")
	}
	nominal := cfg.NominalBytes
	if nominal <= 0 {
		nominal = actual
	}
	mem, err := vm.NewMemory(nominal, cfg.VM)
	if err != nil {
		return nil, err
	}
	return &Paged{
		data:  data,
		mem:   mem,
		tl:    &vm.Timeline{},
		scale: float64(nominal) / float64(actual),
		ro:    cfg.ReadOnly,
	}, nil
}

// Data returns the element slice.
func (p *Paged) Data() []float64 { return p.data }

// Len returns the element count.
func (p *Paged) Len() int { return len(p.data) }

// Writable reports whether the store accepts writes.
func (p *Paged) Writable() bool { return !p.ro }

// Touch simulates paging for a read of elements [start, start+n) on
// the default stream and returns the simulated stall seconds (also
// accumulated on the store's Timeline).
func (p *Paged) Touch(start, n int) float64 {
	off, length := p.scaleRange(start, n)
	stall := p.mem.Touch(off, length)
	p.account(n, stall)
	return stall
}

// TouchWrite simulates paging for a write on the default stream.
func (p *Paged) TouchWrite(start, n int) float64 {
	off, length := p.scaleRange(start, n)
	stall := p.mem.TouchWrite(off, length)
	p.account(n, stall)
	return stall
}

// account folds one access into the shared byte counter and timeline.
func (p *Paged) account(n int, stall float64) {
	p.mu.Lock()
	p.touched += int64(n) * 8
	p.tl.AddDisk(stall)
	p.mu.Unlock()
}

// scaleRange maps the element range [start, start+n) to the nominal
// byte range. The end offset is derived by scaling start+n — not by
// rounding a scaled length separately — so adjacent element ranges
// map to adjacent nominal ranges: block scans neither double-touch
// nor skip nominal pages at block boundaries. Offsets are clamped
// into the nominal store so float64 rounding at extreme scales can
// never reach vm's out-of-range panic.
func (p *Paged) scaleRange(start, n int) (off, length int64) {
	if n < 0 {
		n = 0
	}
	size := p.mem.Size()
	fsize := float64(size)
	// Clamp in the float domain first: converting an out-of-range
	// float64 to int64 is not a saturating operation in Go, so a huge
	// declared start must never reach the conversion unclamped.
	fo := float64(start) * 8 * p.scale
	if fo < 0 {
		fo = 0
	}
	if fo > fsize {
		fo = fsize
	}
	fe := float64(start+n) * 8 * p.scale
	if fe > fsize {
		fe = fsize
	}
	if fe < fo {
		fe = fo
	}
	off = int64(fo)
	if off < 0 || off > size { // float64(size) can round up past size
		off = size
	}
	end := int64(fe)
	if end < 0 || end > size {
		end = size
	}
	if end < off {
		end = off
	}
	length = end - off
	// A non-empty element range always touches at least one byte,
	// even when downscaling collapses it.
	if n > 0 && length == 0 && off < size {
		length = 1
	}
	return off, length
}

// pagedStream is a per-scanner handle over a Paged store: element
// scaling and shared accounting from the store, read-ahead state from
// its own vm.Stream.
type pagedStream struct {
	p *Paged
	s *vm.Stream
}

// Touch simulates paging for a read on this stream.
func (ps *pagedStream) Touch(start, n int) float64 {
	off, length := ps.p.scaleRange(start, n)
	stall := ps.s.Touch(off, length)
	ps.p.account(n, stall)
	return stall
}

// TouchWrite simulates paging for a write on this stream.
func (ps *pagedStream) TouchWrite(start, n int) float64 {
	off, length := ps.p.scaleRange(start, n)
	stall := ps.s.TouchWrite(off, length)
	ps.p.account(n, stall)
	return stall
}

// OpenStream returns a stream with private read-ahead state over the
// store's shared simulated cache — one per concurrent scanner.
func (p *Paged) OpenStream() TouchStream {
	return &pagedStream{p: p, s: p.mem.NewStream()}
}

// ConcurrentSafe reports true: the simulated memory serializes cache
// updates internally, and scanners that need their own sequentiality
// open per-worker streams via OpenStream.
func (p *Paged) ConcurrentSafe() bool { return true }

// Advise adjusts simulated behaviour: DontNeed drops the whole cache;
// other hints are accepted silently (read-ahead adapts on its own).
func (p *Paged) Advise(a mmap.Advice) error {
	if a == mmap.DontNeed {
		p.mem.Drop(0, p.mem.Size())
	}
	return nil
}

// Timeline returns the store's simulated timeline, shared with the
// compute layer so CPU and disk seconds merge into one elapsed model.
func (p *Paged) Timeline() *vm.Timeline { return p.tl }

// Memory exposes the simulated memory for detailed inspection.
func (p *Paged) Memory() *vm.Memory { return p.mem }

// Stats converts simulated paging counters into store statistics.
func (p *Paged) Stats() Stats {
	vs := p.mem.Stats()
	resident := int64(p.mem.ResidentPages()) * p.mem.PageSize()
	p.mu.Lock()
	touched := p.touched
	p.mu.Unlock()
	return Stats{
		BytesTouched:  touched,
		MajorFaults:   vs.MajorFaults,
		BytesRead:     vs.BytesRead,
		StallSeconds:  vs.DiskSeconds,
		ResidentBytes: resident,
	}
}

// Close drops references.
func (p *Paged) Close() error {
	p.data = nil
	return nil
}
