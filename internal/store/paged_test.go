package store_test

// The simulated backend, vm.Paged, lives with the simulator so that
// package store links none of it; these external tests hold it to the
// store.Store contract.

import (
	"sync"
	"testing"

	"m3/internal/mmap"
	"m3/internal/store"
	"m3/internal/vm"
)

var _ store.Store = (*vm.Paged)(nil)

func newPagedTest(t *testing.T, elems int, cfg vm.PagedConfig) *vm.Paged {
	t.Helper()
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(i)
	}
	p, err := vm.NewPaged(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPagedStallsAndStats(t *testing.T) {
	// 1024 elements = 8192 bytes = 2 pages at 4096; cache 1 page →
	// scanning twice faults every page.
	p := newPagedTest(t, 1024, vm.PagedConfig{VM: vm.Config{
		PageSize:          4096,
		CacheBytes:        4096,
		Disk:              vm.DiskModel{BandwidthBytes: 4096, SeekSeconds: 0, RequestSeconds: 0},
		MinReadAheadPages: 1, MaxReadAheadPages: 1,
	}})
	stall := p.Touch(0, 1024)
	if stall <= 0 {
		t.Error("expected stall on cold scan")
	}
	s := p.Stats()
	if s.MajorFaults != 2 {
		t.Errorf("major faults = %d want 2", s.MajorFaults)
	}
	if s.BytesRead != 8192 {
		t.Errorf("bytes read = %d want 8192", s.BytesRead)
	}
	if s.StallSeconds != stall {
		t.Errorf("stats stall %v != returned %v", s.StallSeconds, stall)
	}
	if p.Timeline().DiskSeconds() != stall {
		t.Errorf("timeline disk %v != %v", p.Timeline().DiskSeconds(), stall)
	}
}

func TestPagedNominalScaling(t *testing.T) {
	// 1024 elements (8 KiB actual) modelling a 8 MiB dataset with a
	// 1 MiB cache: out-of-core by 8x, so repeated scans must keep
	// faulting.
	p := newPagedTest(t, 1024, vm.PagedConfig{
		NominalBytes: 8 << 20,
		VM: vm.Config{
			PageSize:          4096,
			CacheBytes:        1 << 20,
			Disk:              vm.DiskModel{BandwidthBytes: 1e6},
			MinReadAheadPages: 1, MaxReadAheadPages: 1,
		},
	})
	p.Touch(0, 1024)
	first := p.Stats().BytesRead
	if first != 8<<20 {
		t.Errorf("cold scan read %d nominal bytes, want %d", first, 8<<20)
	}
	p.Touch(0, 1024)
	second := p.Stats().BytesRead - first
	if second != 8<<20 {
		t.Errorf("warm scan re-read %d bytes, want full re-read %d (working set > cache)", second, 8<<20)
	}
}

func TestPagedFitsInCacheNoRereads(t *testing.T) {
	p := newPagedTest(t, 1024, vm.PagedConfig{
		NominalBytes: 1 << 20, // 1 MiB dataset
		VM: vm.Config{
			PageSize:   4096,
			CacheBytes: 4 << 20, // 4 MiB cache: fits
			Disk:       vm.DiskModel{BandwidthBytes: 1e6},
		},
	})
	p.Touch(0, 1024)
	cold := p.Stats().BytesRead
	p.Touch(0, 1024)
	if got := p.Stats().BytesRead; got != cold {
		t.Errorf("in-RAM dataset re-read from disk: %d -> %d", cold, got)
	}
	stall := p.Touch(0, 1024)
	if stall != 0 {
		t.Errorf("warm scan stalled %v", stall)
	}
}

func TestPagedAdviseDontNeed(t *testing.T) {
	p := newPagedTest(t, 1024, vm.PagedConfig{VM: vm.Config{
		PageSize:   4096,
		CacheBytes: 1 << 20,
		Disk:       vm.DiskModel{BandwidthBytes: 1e6},
	}})
	p.Touch(0, 1024)
	if p.Stats().ResidentBytes == 0 {
		t.Fatal("nothing resident after scan")
	}
	if err := p.Advise(mmap.DontNeed); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ResidentBytes != 0 {
		t.Error("DontNeed did not drop cache")
	}
}

func TestPagedReadOnly(t *testing.T) {
	p := newPagedTest(t, 8, vm.PagedConfig{ReadOnly: true, VM: vm.Config{CacheBytes: 1 << 20}})
	if p.Writable() {
		t.Error("read-only store reports writable")
	}
}

func TestPagedRejectsEmpty(t *testing.T) {
	if _, err := vm.NewPaged(nil, vm.PagedConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
}

// TestPagedScaleRangeSeamless pins the scaleRange bugfix: with a
// non-integral nominal scale, element-by-element touches must cover
// every nominal byte exactly once — the old independent rounding of
// off and length both skipped and double-touched bytes at range
// boundaries.
func TestPagedScaleRangeSeamless(t *testing.T) {
	// 10 elements (80 actual bytes) modelling 56 nominal bytes:
	// scale = 0.7, so every element boundary lands mid-byte.
	p := newPagedTest(t, 10, vm.PagedConfig{
		NominalBytes: 56,
		VM: vm.Config{
			PageSize:          1, // byte-granular pages make gaps visible
			CacheBytes:        1024,
			Disk:              vm.DiskModel{BandwidthBytes: 1e6},
			MinReadAheadPages: 1, MaxReadAheadPages: 1,
		},
	})
	for i := 0; i < 10; i++ {
		p.Touch(i, 1)
	}
	s := p.Stats()
	if s.BytesRead != 56 {
		t.Errorf("element-wise scan read %d nominal bytes, want exactly 56 (no skips, no double reads)", s.BytesRead)
	}
	if s.ResidentBytes != 56 {
		t.Errorf("resident = %d want 56 (every nominal byte cached)", s.ResidentBytes)
	}
	// Adjacent block pairs cover the same bytes as one big touch.
	q := newPagedTest(t, 10, vm.PagedConfig{
		NominalBytes: 56,
		VM: vm.Config{
			PageSize:          1,
			CacheBytes:        1024,
			Disk:              vm.DiskModel{BandwidthBytes: 1e6},
			MinReadAheadPages: 1, MaxReadAheadPages: 1,
		},
	})
	q.Touch(0, 7)
	q.Touch(7, 3)
	if got := q.Stats().BytesRead; got != 56 {
		t.Errorf("blocked scan read %d nominal bytes, want 56", got)
	}
}

// TestPagedTouchBeyondRangeClamps: a declared access past the nominal
// end is clamped instead of reaching vm's out-of-range panic.
func TestPagedTouchBeyondRangeClamps(t *testing.T) {
	p := newPagedTest(t, 8, vm.PagedConfig{VM: vm.Config{CacheBytes: 1 << 20}})
	if stall := p.Touch(1<<60, 4); stall != 0 {
		t.Errorf("beyond-range touch stalled %v, want 0 (clamped to empty)", stall)
	}
	p.Touch(6, 100) // overlaps the end: clamped to the tail
	if p.Stats().BytesRead <= 0 {
		t.Error("tail touch read nothing")
	}
}

func TestPagedConcurrentStreams(t *testing.T) {
	const workers, elems = 8, 8192
	p := newPagedTest(t, elems, vm.PagedConfig{VM: vm.Config{
		PageSize:   4096,
		CacheBytes: 4 * elems * 8,
		Disk:       vm.DiskModel{BandwidthBytes: 1e6},
	}})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.OpenStream()
			lo := w * elems / workers
			for i := 0; i < elems/workers; i += 64 {
				s.Touch(lo+i, 64)
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.BytesTouched != elems*8 {
		t.Errorf("bytes touched = %d want %d", s.BytesTouched, elems*8)
	}
	if s.BytesRead != elems*8 {
		t.Errorf("bytes read = %d want %d (cache fits: each page once)", s.BytesRead, elems*8)
	}
	if got := p.Timeline().DiskSeconds(); got != s.StallSeconds {
		t.Errorf("timeline disk %v != stats stall %v", got, s.StallSeconds)
	}
}

func TestPagedWriteBackOnEvict(t *testing.T) {
	p := newPagedTest(t, 1024, vm.PagedConfig{VM: vm.Config{
		PageSize:          4096,
		CacheBytes:        4096, // 1 page
		Disk:              vm.DiskModel{BandwidthBytes: 1e6},
		MinReadAheadPages: 1, MaxReadAheadPages: 1,
	}})
	p.TouchWrite(0, 512) // dirty page 0
	p.Touch(512, 512)    // evicts page 0 → write-back
	if p.Memory().Stats().DirtyWrittenBack == 0 {
		t.Error("expected dirty write-back")
	}
}
