//go:build !(linux && (amd64 || arm64))

package main

import (
	"errors"

	"m3/internal/mmap"
)

// evict needs madvise, posix_fadvise and mincore; without them a
// "cold" repetition would silently report a warm number, so it fails.
func evict(*mmap.Region) (float64, error) {
	return 1, errors.New("evicting a mapped file is unsupported on this platform: train_cold cannot run")
}
