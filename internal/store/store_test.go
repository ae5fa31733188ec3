package store

import (
	"path/filepath"
	"testing"

	"m3/internal/mmap"
)

// compile-time interface checks
var (
	_ Store = (*Heap)(nil)
	_ Store = (*Mapped)(nil)
)

func TestHeapStore(t *testing.T) {
	h := NewHeap(100)
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	if !h.Writable() {
		t.Error("heap not writable")
	}
	h.Data()[5] = 3.14
	if stall := h.Touch(0, 100); stall != 0 {
		t.Errorf("heap touch stall = %v", stall)
	}
	h.TouchWrite(0, 10)
	s := h.Stats()
	if s.BytesTouched != 110*8 {
		t.Errorf("bytes touched = %d want %d", s.BytesTouched, 110*8)
	}
	if s.ResidentBytes != 800 {
		t.Errorf("resident = %d want 800", s.ResidentBytes)
	}
	if err := h.Advise(mmap.Sequential); err != nil {
		t.Errorf("advise: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if h.Data() != nil {
		t.Error("data not released")
	}
}

func TestFromSlice(t *testing.T) {
	s := []float64{1, 2, 3}
	h := FromSlice(s)
	h.Data()[0] = 9
	if s[0] != 9 {
		t.Error("FromSlice copied instead of wrapping")
	}
}

func TestMappedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	m, err := CreateMapped(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Writable() {
		t.Error("CreateMapped not writable")
	}
	for i := range m.Data() {
		m.Data()[i] = float64(i)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Writable() {
		t.Error("OpenMapped should be read-only")
	}
	if ro.Len() != 512 {
		t.Fatalf("Len = %d", ro.Len())
	}
	for i, v := range ro.Data() {
		if v != float64(i) {
			t.Fatalf("data[%d] = %v", i, v)
		}
	}
	if err := ro.Advise(mmap.Sequential); err != nil {
		t.Errorf("advise: %v", err)
	}
	ro.Touch(0, 512)
	s := ro.Stats()
	if s.BytesTouched != 512*8 {
		t.Errorf("bytes touched = %d", s.BytesTouched)
	}
	if s.ResidentBytes <= 0 {
		t.Errorf("resident bytes = %d, want > 0 after touching", s.ResidentBytes)
	}
}

func TestOpenMappedRW(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.bin")
	m, err := CreateMapped(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.Data()[0] = 1
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rw, err := OpenMappedRW(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	rw.Data()[0] = 2
	if !rw.Writable() {
		t.Error("not writable")
	}
}

func TestOpenMappedMissing(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("expected error")
	}
}
