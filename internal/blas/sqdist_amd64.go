//go:build amd64 && !purego

package blas

// useAVX2 is decided once, from the CPU alone: both kernels return the
// same bits, so the choice is invisible to every caller.
var useAVX2 = cpuHasAVX2()

func sqDist(x, y []float64, bound float64) float64 {
	if useAVX2 {
		return sqDistAVX2(x, y, bound)
	}
	return sqDistGeneric(x, y, bound)
}

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM state (CPUID.1:ECX.OSXSAVE+AVX, XCR0[2:1], CPUID.7.0:EBX.AVX2).
func cpuHasAVX2() bool

// sqDistAVX2 is sqDistGeneric on two YMM accumulators (lanes 0-3 and
// 4-7). It reads len(x) elements of each slice; y must be as long.
//
//go:noescape
func sqDistAVX2(x, y []float64, bound float64) float64
