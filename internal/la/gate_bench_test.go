package la

// BenchmarkDenseGate: dense MatVec and VecMat at 2¹⁷ and 2¹⁸ scalar ops
// (rows × 32 columns), each run serially on the calling goroutine and fanned
// out over the pool on pool.Grain's grid — the two sides of the pool's gate
// for the same call. Run on the host whose gate is in question:
//
//	go test -run '^$' -bench BenchmarkDenseGate -cpu 2 ./internal/la

import (
	"fmt"
	"math/rand"
	"testing"

	"dmml/internal/pool"
)

func BenchmarkDenseGate(b *testing.B) {
	const cols = 32
	r := rand.New(rand.NewSource(36))
	for _, e := range []int{17, 18} {
		rows := 1 << e / cols
		m := randMat(r, rows, cols, 0)
		x := make([]float64, rows)
		v := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range v {
			v[i] = r.NormFloat64()
		}
		mv := make([]float64, rows)
		vm := make([]float64, cols)
		rowsFn := func(r0, r1 int) { matVecRows(mv[r0:r1], m, v, r0, r1) }
		accum := func(acc []float64, lo, hi int) { vecMatAccum(acc, x[lo:hi], m, lo, hi) }
		work := fmt.Sprintf("2^%d", e)
		b.Run("MatVec/"+work+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matVecRows(mv, m, v, 0, rows)
			}
		})
		b.Run("MatVec/"+work+"/pool", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool.Do(rows, pool.Grain(rows, cols, 0), rowsFn)
			}
		})
		b.Run("VecMat/"+work+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(vm)
				pool.ReduceSerial(vm, rows, cols, accum)
			}
		})
		b.Run("VecMat/"+work+"/pool", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(vm)
				pool.Reduce(vm, rows, cols, accum)
			}
		})
	}
}
