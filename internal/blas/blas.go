// Package blas provides the dense float64 linear-algebra kernels that
// every layer of the M3 reproduction is built on: level-1 vector
// operations, level-2 matrix-vector products over row-major storage,
// and a blocked level-3 matrix-matrix multiply.
//
// All kernels operate on plain []float64 so they work identically on
// heap-allocated slices and on slices that view a memory-mapped region
// (the core idea of M3: mapped data is indistinguishable from
// in-memory data).
package blas

import "math"

// Dot returns the inner product of x and y.
// It panics if the slices have different lengths.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("blas: dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes y += alpha*x in place.
// It panics if the slices have different lengths.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow for
// very large components in the style of the reference BLAS.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s0, s1 float64
	n := len(x)
	i := 0
	for ; i+2 <= n; i += 2 {
		s0 += x[i]
		s1 += x[i+1]
	}
	if i < n {
		s0 += x[i]
	}
	return s0 + s1
}

// AddScaled computes dst[i] = x[i] + alpha*y[i]. The destination may
// alias x. It panics on length mismatch.
func AddScaled(dst []float64, x []float64, alpha float64, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("blas: addscaled length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + alpha*y[i]
	}
}

// Gemv computes y = alpha*A*x + beta*y for a row-major m×n matrix A
// stored in a with leading dimension lda. It panics if the operand
// shapes are inconsistent.
func Gemv(m, n int, alpha float64, a []float64, lda int, x []float64, beta float64, y []float64) {
	checkMatrix(m, n, a, lda)
	if len(x) < n || len(y) < m {
		panic("blas: gemv vector too short")
	}
	if beta != 1 {
		if beta == 0 {
			Fill(y[:m], 0)
		} else {
			Scal(beta, y[:m])
		}
	}
	if alpha == 0 {
		return
	}
	for i := 0; i < m; i++ {
		row := a[i*lda : i*lda+n]
		y[i] += alpha * Dot(row, x[:n])
	}
}

// gemmBlock is the cache-blocking tile edge for Gemm.
const gemmBlock = 64

// Gemm computes C = alpha*A*B + beta*C for row-major matrices:
// A is m×k (lda), B is k×n (ldb), C is m×n (ldc). The inner loops are
// tiled so large multiplies stay cache-resident.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkMatrix(m, k, a, lda)
	checkMatrix(k, n, b, ldb)
	checkMatrix(m, n, c, ldc)
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				Fill(row, 0)
			} else {
				Scal(beta, row)
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	for i0 := 0; i0 < m; i0 += gemmBlock {
		iMax := min(i0+gemmBlock, m)
		for p0 := 0; p0 < k; p0 += gemmBlock {
			pMax := min(p0+gemmBlock, k)
			for j0 := 0; j0 < n; j0 += gemmBlock {
				jMax := min(j0+gemmBlock, n)
				for i := i0; i < iMax; i++ {
					crow := c[i*ldc : i*ldc+n]
					arow := a[i*lda : i*lda+k]
					for p := p0; p < pMax; p++ {
						av := alpha * arow[p]
						if av == 0 {
							continue
						}
						brow := b[p*ldb : p*ldb+n]
						for j := j0; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// --- Row-block kernels ------------------------------------------------
//
// These operate on a contiguous block of rows — the unit of work the
// chunked-execution layer (internal/exec) hands to each worker — so
// trainers can express their per-block map step as one call.

// SumRows accumulates the column sums of a row-major m×n block into y
// (y[j] += sum_i a[i][j]).
func SumRows(m, n int, a []float64, lda int, y []float64) {
	checkMatrix(m, n, a, lda)
	if len(y) < n {
		panic("blas: sumrows destination too short")
	}
	for i := 0; i < m; i++ {
		Axpy(1, a[i*lda:i*lda+n], y[:n])
	}
}

// Syr performs the symmetric rank-1 update A += alpha * x * xᵀ on the
// upper triangle of a row-major n×n matrix — the covariance
// accumulation kernel. Only entries a[i][j] with j >= i are written.
func Syr(n int, alpha float64, x []float64, a []float64, lda int) {
	checkMatrix(n, n, a, lda)
	if len(x) < n {
		panic("blas: syr vector too short")
	}
	if alpha == 0 {
		return
	}
	for i := 0; i < n; i++ {
		v := alpha * x[i]
		if v == 0 {
			continue
		}
		Axpy(v, x[i:n], a[i*lda+i:i*lda+n])
	}
}

// NearestRow returns the index of the row of the row-major k×n matrix
// c closest (squared Euclidean distance) to x, and that distance —
// the k-means assignment kernel. Ties resolve to the lowest index. Each
// row is scanned only until it is past the best distance so far
// (SqDistBounded), which changes no result.
func NearestRow(x []float64, k, n int, c []float64, ldc int) (best int, dist float64) {
	checkMatrix(k, n, c, ldc)
	if len(x) < n {
		panic("blas: nearestrow vector too short")
	}
	dist = math.Inf(1)
	for i := 0; i < k; i++ {
		if d2 := sqDist(x[:n], c[i*ldc:i*ldc+n], dist); d2 < dist {
			best, dist = i, d2
		}
	}
	return best, dist
}

func checkMatrix(m, n int, a []float64, lda int) {
	if m < 0 || n < 0 {
		panic("blas: negative dimension")
	}
	if lda < n {
		panic("blas: leading dimension smaller than row width")
	}
	if m > 0 && len(a) < (m-1)*lda+n {
		panic("blas: matrix storage too short")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
