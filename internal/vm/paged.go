package vm

import (
	"fmt"
	"sync"

	"m3/internal/mmap"
	"m3/internal/store"
)

// Paged is the simulated out-of-core store.Store: a real element slice
// coupled with a simulated Memory, so out-of-core behaviour (RAM
// budget, LRU eviction, read-ahead, disk stalls) can be studied
// deterministically at any nominal scale. The element data itself is
// heap-resident — the simulation governs *timing*, not values.
//
// NominalBytes may exceed 8*len(data): the store then models a
// dataset of the nominal size whose access pattern is the scaled
// pattern of the real slice. This is how the 10–190 GB sweep of
// Figure 1a runs on a laptop: the computation runs on a congruent
// small matrix while paging is accounted at full scale.
//
// Paged is safe for concurrent use. Touch/TouchWrite run on the
// simulator's default stream, so a single-scanner sequence through
// them is exactly deterministic; a model of several scanners opens one
// PagedStream each (OpenStream) and decides itself which scanner
// touches which range, in which order.
type Paged struct {
	data  []float64
	mem   *Memory
	scale float64 // nominal bytes per actual element byte
	ro    bool

	mu      sync.Mutex // guards tl and touched; mem locks itself
	tl      *Timeline
	touched int64
}

// PagedConfig configures a Paged store.
type PagedConfig struct {
	// VM configures the simulated memory (RAM budget, disk, pages).
	VM Config
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
		return nil, fmt.Errorf("vm: empty data")
	}
	nominal := cfg.NominalBytes
	if nominal <= 0 {
		nominal = actual
	}
	mem, err := NewMemory(nominal, cfg.VM)
	if err != nil {
		return nil, err
	}
	return &Paged{
		data:  data,
		mem:   mem,
		tl:    &Timeline{},
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
// never reach Memory's out-of-range panic.
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

// PagedStream is one simulated scanner over a Paged store: element
// scaling and shared accounting from the store, read-ahead state from
// its own Stream.
type PagedStream struct {
	p *Paged
	s *Stream
}

// Touch simulates paging for a read on this stream.
func (ps *PagedStream) Touch(start, n int) float64 {
	off, length := ps.p.scaleRange(start, n)
	stall := ps.s.Touch(off, length)
	ps.p.account(n, stall)
	return stall
}

// OpenStream returns a stream with private read-ahead state over the
// store's shared simulated cache — one per simulated scanner.
func (p *Paged) OpenStream() *PagedStream {
	return &PagedStream{p: p, s: p.mem.NewStream()}
}

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
func (p *Paged) Timeline() *Timeline { return p.tl }

// Memory exposes the simulated memory for detailed inspection.
func (p *Paged) Memory() *Memory { return p.mem }

// Stats converts simulated paging counters into store statistics.
func (p *Paged) Stats() store.Stats {
	vs := p.mem.Stats()
	resident := int64(p.mem.ResidentPages()) * p.mem.PageSize()
	p.mu.Lock()
	touched := p.touched
	p.mu.Unlock()
	return store.Stats{
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
