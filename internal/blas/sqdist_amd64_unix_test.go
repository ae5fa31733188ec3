//go:build amd64 && !purego && unix

package blas

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// TestSqDistAVX2StaysInBounds: mapped rows can end on the last byte of
// a mapping. With an inaccessible page on either side of the data, any
// load the kernel issues outside [0, len) — a full vector over a short
// tail, a masked lane that faults — is a SIGSEGV, not a silent pass.
func TestSqDistAVX2StaysInBounds(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2")
	}
	page := syscall.Getpagesize()
	guarded := func() []float64 {
		b, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { syscall.Munmap(b) })
		for _, guard := range [][]byte{b[:page], b[2*page:]} {
			if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
				t.Fatal(err)
			}
		}
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[page])), page/8)
	}
	x, y := guarded(), guarded()
	for i := range x {
		x[i], y[i] = float64(i%17), float64(i%13)
	}
	for n := 0; n <= 300 && n <= len(x); n++ {
		// Flush against the guard page after the data, then before it.
		for _, at := range []int{len(x) - n, 0} {
			xs, ys := x[at:at+n], y[at:at+n]
			want := sqDistGeneric(xs, ys, math.Inf(1))
			if got := sqDistAVX2(xs, ys, math.Inf(1)); !sameBits(got, want) {
				t.Fatalf("len %d at %d: %v, want %v", n, at, got, want)
			}
		}
	}
}
