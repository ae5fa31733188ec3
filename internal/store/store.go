// Package store defines M3's central abstraction: a linear array of
// float64 whose backing medium — Go heap or a real memory-mapped file
// — is invisible to the algorithms above it.
//
// This transparency is the paper's whole point: logistic regression
// and k-means are written once against mat.Dense, and switching a
// dataset from in-memory to out-of-core is a one-line change of
// backend (Table 1). The simulated paged backend that redraws the
// paper's figures at nominal scale is one more Store, vm.Paged; it
// lives with the simulator, so nothing here links it.
package store

import (
	"errors"
	"sync/atomic"

	"m3/internal/mmap"
)

// ErrReadOnly is returned by write accessors of read-only stores.
var ErrReadOnly = errors.New("store: read-only")

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
// best-effort OS numbers; the simulated vm.Paged reports exact counts.
type Stats struct {
	// BytesTouched counts bytes of element accesses routed through
	// Touch/TouchWrite.
	BytesTouched int64
	// MajorFaults and BytesRead are populated by vm.Paged.
	MajorFaults uint64
	BytesRead   int64
	// StallSeconds is simulated disk stall (vm.Paged only).
	StallSeconds float64
	// ResidentBytes is the currently RAM-resident portion, when the
	// backend can determine it (mmap via mincore, vm.Paged exactly).
	ResidentBytes int64
}

// Store is a 1-D float64 array with access-pattern hooks.
//
// Touch and TouchWrite declare an upcoming access to elements
// [start, start+n); they return the simulated stall in seconds (zero
// for real backends, where the hardware pays the cost instead).
// Algorithms call them once per row or block, not per element. A
// parallel scan calls them from several goroutines at once, so every
// backend's accounting must be safe for concurrent use.
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
