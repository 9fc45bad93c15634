//go:build !amd64

package la

// logisticTile4 is the logistic tile's stand-in off amd64: it takes no rows,
// so LogisticLossInto runs every group in Go.
//
//dmml:noalloc
func logisticTile4(derivs, margins, y []float64, total float64) (done int, sum float64) {
	return 0, total
}

// sigmoidTile4 is the sigmoid tile's stand-in off amd64: it takes no
// values, so sigmoidTile runs every group in Go.
//
//dmml:noalloc
func sigmoidTile4(dst, x []float64) (done int) { return 0 }

// vectorTilesSupported reports false: the vector tiles are amd64 assembly.
func vectorTilesSupported() bool { return false }
