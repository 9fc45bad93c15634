package la

// The dense tiles (dense_amd64.s) run the inner loops of matVecRows,
// vecMatAccum and gramAccum on AVX2 where denseTileOn holds, each lane the
// Go loop's own arithmetic in its own order, so either path gives the same
// bits.

// matVecTile4 sets dst[k] to Dot(row k, x) for the first len(dst)&^3 rows of
// len(x) columns laid out in rows, four rows per sweep, and returns how many
// it set.
//
//go:noescape
//dmml:noalloc
func matVecTile4(dst, rows, x []float64) (done int)

// vecMatTile2 adds x[k]·row k into acc for the rows of len(acc) columns laid
// out in rows, two at a time from the front — acc[b] += x0*row0[b] +
// x1*row1[b] — while both weights of a pair are nonzero. It returns the rows
// it took, a multiple of two.
//
//go:noescape
//dmml:noalloc
func vecMatTile2(acc, rows, x []float64) (done int)

// gramTile4 folds the four rows of d = len(quad)/4 columns in quad into the
// upper triangle of the d×d accumulator acc from its row a on — arow[b] +=
// va0*row0[b] + va1*row1[b] + va2*row2[b] + va3*row3[b] for b from a to d —
// while the four coefficients at the row are all nonzero. It returns the
// first row it did not take, d when it took them all.
//
//go:noescape
//dmml:noalloc
func gramTile4(acc, quad []float64, a int) (next int)
