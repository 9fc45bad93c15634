package la

import (
	"fmt"
	"math"
)

// Vector helpers operate on plain []float64 slices so callers can avoid
// wrapping 1-D data in matrices.

// Dot returns the inner product of x and y.
//dmml:noalloc
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	// 4-way unrolled accumulation; keeps the loop dependence chain short.
	n := len(x)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s + s0 + s1 + s2 + s3
}

// Axpy computes y += a*x in place.
//dmml:noalloc
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
//dmml:noalloc
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Norm2 returns the Euclidean norm of x.
//dmml:noalloc
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// SubVec computes x - y into a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("la: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SumVec returns the sum of the elements of x.
//dmml:noalloc
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

