//go:build !amd64 || purego

package blas

func sqDist(x, y []float64, bound float64) float64 { return sqDistGeneric(x, y, bound) }
