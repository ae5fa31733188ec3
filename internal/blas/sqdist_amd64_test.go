//go:build amd64 && !purego

package blas

import "testing"

// The assembly joins the kernels every property test compares with the
// reference.
func init() {
	if useAVX2 {
		sqDistKernels = append(sqDistKernels, sqDistKernel{"avx2", sqDistAVX2})
	}
}

// TestAVX2Detected makes a run that silently tested only the fallback
// visible in the log.
func TestAVX2Detected(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the assembly kernel is not exercised on this host")
	}
}
