package mmap

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestAllocWriteReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.bin")
	r, err := Alloc(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Bytes()
	for i := range b {
		b[i] = byte(i % 251)
	}
	if err := r.Unmap(); err != nil {
		t.Fatal(err)
	}
	// Re-open read-only and verify persistence through the page cache.
	r2, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Unmap()
	for i, v := range r2.Bytes() {
		if v != byte(i%251) {
			t.Fatalf("byte %d = %d, want %d", i, v, i%251)
		}
	}
}

func TestFloat64View(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f64.bin")
	fs, r, err := AllocFloat64(path, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1000 {
		t.Fatalf("len = %d want 1000", len(fs))
	}
	for i := range fs {
		fs[i] = float64(i) * 1.5
	}
	if err := r.Unmap(); err != nil {
		t.Fatal(err)
	}
	got, r2, err := OpenFloat64(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Unmap()
	for i, v := range got {
		if v != float64(i)*1.5 {
			t.Fatalf("fs[%d] = %v want %v", i, v, float64(i)*1.5)
		}
	}
}

func TestFloat64ViewRejectsUnaligned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "odd.bin")
	if err := os.WriteFile(path, make([]byte, 13), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmap()
	if _, err := r.Float64(); err == nil {
		t.Fatal("expected error for 13-byte file")
	}
}

func TestMapFileErrors(t *testing.T) {
	if _, err := MapFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("expected error for missing file")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MapFile(empty); err == nil {
		t.Error("expected error for empty file")
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	if _, err := Alloc(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Error("expected error for size 0")
	}
	if _, err := Alloc(filepath.Join(t.TempDir(), "y"), -5); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestAnon(t *testing.T) {
	r, err := anon(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmap()
	b := r.Bytes()
	if len(b) != 1<<16 {
		t.Fatalf("len = %d", len(b))
	}
	// Anonymous pages must be zeroed.
	for i := 0; i < len(b); i += 4097 {
		if b[i] != 0 {
			t.Fatalf("anon byte %d not zero", i)
		}
	}
	b[0], b[len(b)-1] = 1, 2
	if r.Path() != "" {
		t.Errorf("anon path = %q", r.Path())
	}
	if err := r.Sync(); err != nil {
		t.Errorf("anon sync: %v", err)
	}
}

func TestAdviseAllHints(t *testing.T) {
	r, err := anon(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmap()
	for _, a := range []Advice{Normal, Sequential, Random, WillNeed, DontNeed} {
		if err := r.Advise(a); err != nil {
			t.Errorf("Advise(%s): %v", a, err)
		}
	}
	if err := r.Advise(Advice(99)); err == nil {
		t.Error("expected error for unknown advice")
	}
}

func TestAdviceString(t *testing.T) {
	want := map[Advice]string{
		Normal: "normal", Sequential: "sequential", Random: "random",
		WillNeed: "willneed", DontNeed: "dontneed", Advice(42): "advice(42)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("Advice(%d).String() = %q want %q", int(a), a.String(), s)
		}
	}
}

func TestUnmapIdempotent(t *testing.T) {
	r, err := anon(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Unmap(); err != nil {
		t.Fatal(err)
	}
	if err := r.Unmap(); err != nil {
		t.Fatalf("second Unmap: %v", err)
	}
	if err := r.Advise(Sequential); err != ErrClosed {
		t.Errorf("Advise after Unmap = %v, want ErrClosed", err)
	}
	if _, err := r.Float64(); err != ErrClosed {
		t.Errorf("Float64 after Unmap = %v, want ErrClosed", err)
	}
	if _, _, err := r.Residency(); err != ErrClosed {
		t.Errorf("Residency after Unmap = %v, want ErrClosed", err)
	}
}

func TestResidency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.bin")
	r, err := Alloc(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmap()
	// Touch every page; afterwards everything should be resident.
	b := r.Bytes()
	ps := PageSize()
	for i := 0; i < len(b); i += ps {
		b[i] = 1
	}
	res, total, err := r.Residency()
	if err != nil {
		t.Fatal(err)
	}
	if total != (1<<20)/ps {
		t.Errorf("total pages = %d want %d", total, (1<<20)/ps)
	}
	if res != total {
		t.Errorf("resident = %d/%d after touching all pages", res, total)
	}
}

func TestMapRejectsBadOffset(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(1 << 16); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(f, 3, 4096, false); err == nil {
		t.Error("expected error for unaligned offset")
	}
	if _, err := Map(f, 0, 0, false); err == nil {
		t.Error("expected error for zero length")
	}
}

func TestLargeSparseAlloc(t *testing.T) {
	// A mapping far larger than the heap should succeed instantly
	// because pages materialize lazily — the essence of M3.
	path := filepath.Join(t.TempDir(), "big.bin")
	const size = 1 << 31 // 2 GiB address space, ~0 bytes touched
	r, err := Alloc(path, size)
	if err != nil {
		t.Skipf("large alloc unavailable: %v", err)
	}
	defer r.Unmap()
	b := r.Bytes()
	// Touch one byte per 256 MiB.
	for i := 0; i < len(b); i += 1 << 28 {
		b[i] = 7
	}
	res, total, err := r.Residency()
	if err != nil {
		t.Fatal(err)
	}
	if res >= total/2 {
		t.Errorf("sparse mapping unexpectedly dense: %d/%d resident", res, total)
	}
}

// TestDiscard: Discard unmaps without a sync, is idempotent, composes
// with Unmap in either order, and works on a region whose file is
// already unlinked (the scratch-release order).
func TestDiscard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scratch.bin")
	r, err := Alloc(path, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Bytes() {
		r.Bytes()[i] = 0xab // dirty every page
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := r.Discard(); err != nil {
		t.Fatal(err)
	}
	if err := r.Discard(); err != nil {
		t.Errorf("second Discard: %v", err)
	}
	if err := r.Unmap(); err != nil {
		t.Errorf("Unmap after Discard: %v", err)
	}
	if err := r.Advise(Sequential); err != ErrClosed {
		t.Errorf("Advise after Discard = %v, want ErrClosed", err)
	}
}

// anon returns an anonymous (not file-backed) writable mapping of
// size bytes, for tests that need a region without a file.
func anon(size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmap: non-positive size %d", size)
	}
	b, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mmap: anonymous mapping of %d bytes: %w", size, err)
	}
	return &Region{data: b, writable: true, anon: true}, nil
}
