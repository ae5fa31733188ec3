//go:build linux && (amd64 || arm64)

package main

import (
	"fmt"
	"os"
	"syscall"

	"m3/internal/mmap"
)

const fadvDontNeed = 4 // POSIX_FADV_DONTNEED

// evict pushes a mapped file out of memory and reports what share of
// the mapping is still resident. The order matters: fadvise skips
// pages that a mapping still references, so the mapping's pages are
// dropped first; and it skips dirty pages, so a freshly generated file
// is synced first.
func evict(r *mmap.Region) (residentFrac float64, err error) {
	if err := r.Advise(mmap.DontNeed); err != nil {
		return 1, err
	}
	f, err := os.Open(r.Path())
	if err != nil {
		return 1, err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return 1, err
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); errno != 0 {
		return 1, fmt.Errorf("posix_fadvise(%s): %w", r.Path(), errno)
	}
	resident, total, err := r.Residency()
	if err != nil {
		return 1, err
	}
	return float64(resident) / float64(total), nil
}
