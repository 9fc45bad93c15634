//go:build !amd64

package la

// The dense tiles' stand-ins off amd64: each takes no rows, and denseTileOn
// is false, so matVecRows, vecMatAccum and gramAccum run their Go loops.

//dmml:noalloc
func matVecTile4(dst, rows, x []float64) (done int) { return 0 }

//dmml:noalloc
func vecMatTile2(acc, rows, x []float64) (done int) { return 0 }

//dmml:noalloc
func gramTile4(acc, quad []float64, a int) (next int) { return a }
