// Package mmap implements the memory-mapping substrate of M3: it maps
// dataset files into the process's virtual address space so that the
// operating system — not the algorithm author — decides which parts of
// the data are resident in RAM.
//
// The central entry points mirror the paper's Table 1:
//
//	Original                        M3
//	--------                        --------------------------------
//	Mat data;                       m, _ := mmap.AllocFloat64(file, rows*cols)
//	                                data := mat.NewDenseFrom(m, rows, cols)
//
// A mapped region is an ordinary []byte (or []float64 view) backed by
// the page cache; reads fault pages in on demand and the kernel evicts
// them under memory pressure using LRU-like reclamation and read-ahead,
// exactly the mechanism the paper leverages.
package mmap

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// Advice hints the kernel about the expected access pattern of a
// mapped region (madvise(2)).
type Advice int

const (
	// Normal resets the kernel to default read-ahead behaviour.
	Normal Advice = iota
	// Sequential requests aggressive read-ahead; ideal for the
	// full-matrix scans performed by each L-BFGS or k-means iteration.
	Sequential
	// Random disables read-ahead for pointer-chasing access.
	Random
	// WillNeed asks the kernel to populate pages ahead of use.
	WillNeed
	// DontNeed tells the kernel the pages may be reclaimed.
	DontNeed
)

func (a Advice) String() string {
	switch a {
	case Normal:
		return "normal"
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case WillNeed:
		return "willneed"
	case DontNeed:
		return "dontneed"
	}
	return fmt.Sprintf("advice(%d)", int(a))
}

func (a Advice) sysAdvice() (int, error) {
	switch a {
	case Normal:
		return syscall.MADV_NORMAL, nil
	case Sequential:
		return syscall.MADV_SEQUENTIAL, nil
	case Random:
		return syscall.MADV_RANDOM, nil
	case WillNeed:
		return syscall.MADV_WILLNEED, nil
	case DontNeed:
		return syscall.MADV_DONTNEED, nil
	}
	return 0, fmt.Errorf("mmap: unknown advice %d", int(a))
}

// ErrClosed is returned by operations on an unmapped Region.
var ErrClosed = errors.New("mmap: region is closed")

// Region is a mapped span of a file (or anonymous memory).
// It is not safe for concurrent mutation with Unmap.
type Region struct {
	data     []byte
	writable bool
	anon     bool
	path     string
}

// PageSize returns the system page size.
func PageSize() int { return os.Getpagesize() }

// Map maps length bytes of f starting at offset. If writable is true
// the mapping is MAP_SHARED read-write, so stores propagate to the
// file; otherwise it is a read-only shared mapping.
func Map(f *os.File, offset int64, length int, writable bool) (*Region, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mmap: non-positive length %d", length)
	}
	if offset < 0 || offset%int64(PageSize()) != 0 {
		return nil, fmt.Errorf("mmap: offset %d must be a non-negative page multiple", offset)
	}
	prot := syscall.PROT_READ
	if writable {
		prot |= syscall.PROT_WRITE
	}
	b, err := syscall.Mmap(int(f.Fd()), offset, length, prot, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: mapping %q (%d bytes @ %d): %w", f.Name(), length, offset, err)
	}
	return &Region{data: b, writable: writable, path: f.Name()}, nil
}

// MapFile opens path and maps its entire contents read-only.
func MapFile(path string) (*Region, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() == 0 {
		return nil, fmt.Errorf("mmap: %q is empty", path)
	}
	if fi.Size() > int64(maxInt) {
		return nil, fmt.Errorf("mmap: %q too large for address space (%d bytes)", path, fi.Size())
	}
	return Map(f, 0, int(fi.Size()), false)
}

// Alloc is the paper's mmapAlloc: it creates (or truncates) path to
// size bytes and maps it read-write. The returned region behaves like
// a freshly allocated buffer whose backing store is the file, so it
// can exceed RAM.
func Alloc(path string, size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmap: non-positive size %d", size)
	}
	if size > int64(maxInt) {
		return nil, fmt.Errorf("mmap: size %d exceeds address space", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return nil, fmt.Errorf("mmap: truncating %q to %d bytes: %w", path, size, err)
	}
	return Map(f, 0, int(size), true)
}

// Bytes returns the mapped bytes. The slice is invalid after Unmap.
func (r *Region) Bytes() []byte { return r.data }

// Len returns the length of the mapping in bytes.
func (r *Region) Len() int { return len(r.data) }

// Writable reports whether stores to the region are permitted.
func (r *Region) Writable() bool { return r.writable }

// Path returns the backing file path ("" for anonymous mappings).
func (r *Region) Path() string { return r.path }

// Float64 returns the mapping viewed as a []float64. The region
// length must be a multiple of 8 bytes.
func (r *Region) Float64() ([]float64, error) {
	if r.data == nil {
		return nil, ErrClosed
	}
	if len(r.data)%8 != 0 {
		return nil, fmt.Errorf("mmap: length %d is not a multiple of 8", len(r.data))
	}
	if len(r.data) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&r.data[0])), len(r.data)/8), nil
}

// Advise applies an access-pattern hint to the whole region.
func (r *Region) Advise(a Advice) error {
	if r.data == nil {
		return ErrClosed
	}
	adv, err := a.sysAdvice()
	if err != nil {
		return err
	}
	if err := syscall.Madvise(r.data, adv); err != nil {
		return fmt.Errorf("mmap: madvise(%s): %w", a, err)
	}
	return nil
}

// AdviseRange applies a hint to bytes [off, off+length) of the region.
// The range is widened to page boundaries, as madvise(2) requires; a
// range that falls outside the mapping is clamped. This is the
// primitive behind block prefetch: a scanner working on block k can
// issue WillNeed for block k+1 so the kernel overlaps its read with
// the current block's compute.
func (r *Region) AdviseRange(a Advice, off, length int64) error {
	if r.data == nil {
		return ErrClosed
	}
	adv, err := a.sysAdvice()
	if err != nil {
		return err
	}
	if off < 0 {
		length += off
		off = 0
	}
	if off >= int64(len(r.data)) || length <= 0 {
		return nil
	}
	ps := int64(PageSize())
	start := off / ps * ps // mapping base is page-aligned
	end := off + length
	if end > int64(len(r.data)) {
		end = int64(len(r.data))
	}
	if err := syscall.Madvise(r.data[start:end], adv); err != nil {
		return fmt.Errorf("mmap: madvise(%s, [%d,%d)): %w", a, start, end, err)
	}
	return nil
}

// Sync flushes dirty pages of a writable file-backed mapping to disk
// (msync(2), MS_SYNC).
func (r *Region) Sync() error {
	if r.data == nil {
		return ErrClosed
	}
	if r.anon || !r.writable {
		return nil
	}
	if err := msync(r.data); err != nil {
		return fmt.Errorf("mmap: msync %q: %w", r.path, err)
	}
	return nil
}

// Unmap releases the mapping. Writable file-backed regions are synced
// first. Unmap is idempotent.
func (r *Region) Unmap() error {
	if r.data == nil {
		return nil
	}
	var firstErr error
	if r.writable && !r.anon {
		firstErr = r.Sync()
	}
	if err := syscall.Munmap(r.data); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("mmap: munmap: %w", err)
	}
	r.data = nil
	return firstErr
}

// Discard releases the mapping without syncing it: for a region whose
// file has no reader left (an unlinked scratch), where Unmap's msync
// would write every dirty page to disk only for the kernel to drop it.
// Discard is idempotent, and a no-op after Unmap.
func (r *Region) Discard() error {
	if r.data == nil {
		return nil
	}
	err := syscall.Munmap(r.data)
	r.data = nil
	if err != nil {
		return fmt.Errorf("mmap: munmap: %w", err)
	}
	return nil
}

// Close makes Region satisfy io.Closer; it is equivalent to Unmap.
func (r *Region) Close() error { return r.Unmap() }

// Residency reports how many of the region's pages are currently
// resident in RAM, using mincore(2). It returns resident and total
// page counts.
func (r *Region) Residency() (resident, total int, err error) {
	if r.data == nil {
		return 0, 0, ErrClosed
	}
	ps := PageSize()
	total = (len(r.data) + ps - 1) / ps
	vec := make([]byte, total)
	if err := mincore(r.data, vec); err != nil {
		return 0, total, fmt.Errorf("mmap: mincore: %w", err)
	}
	for _, v := range vec {
		if v&1 != 0 {
			resident++
		}
	}
	return resident, total, nil
}

const maxInt = int(^uint(0) >> 1)

// AllocFloat64 creates a file-backed mapping sized for n float64
// values and returns both the element view and the region for
// lifecycle management. It is the direct analogue of the paper's
//
//	double *m = mmapAlloc(file, rows * cols);
func AllocFloat64(path string, n int64) ([]float64, *Region, error) {
	r, err := Alloc(path, n*8)
	if err != nil {
		return nil, nil, err
	}
	fs, err := r.Float64()
	if err != nil {
		r.Unmap()
		return nil, nil, err
	}
	return fs, r, nil
}

// OpenFloat64 maps an existing file read-only as float64 values.
func OpenFloat64(path string) ([]float64, *Region, error) {
	r, err := MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	fs, err := r.Float64()
	if err != nil {
		r.Unmap()
		return nil, nil, err
	}
	return fs, r, nil
}
