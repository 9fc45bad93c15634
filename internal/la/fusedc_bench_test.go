package la

// BenchmarkFusedDispatch: the fused kernel against its rooflines. One fixed
// workload — the E15 6-op sigmoid chain sigmoid(x*2+1)*x - x/3 over
// 200000×20 — evaluated by the compiled kernel (flat template), a
// hand-written loop with the tile-vectorized sigmoid, and a hand-written
// loop with scalar math.Exp, all single-core (the pool's gate is not enough
// at this size, so GOMAXPROCS pins the comparison instead).
// Run with -cpu=1:
//
//	go test -run '^$' -bench BenchmarkFusedDispatch -cpu=1 ./internal/la

import (
	"math/rand"
	"testing"
)

func fusedDispatchSetup(b *testing.B) (*FuseProgram, []FusedInput, *Dense) {
	b.Helper()
	r := rand.New(rand.NewSource(15000))
	rows, cols := 200000, 20
	x := randMat(r, rows, cols, 0)
	p, err := CompileFused([]FusedOp{
		{Code: FuseLoad, Arg: 0}, {Code: FuseConst, Val: 2}, {Code: FuseMul},
		{Code: FuseConst, Val: 1}, {Code: FuseAdd}, {Code: FuseSigmoid},
		{Code: FuseLoad, Arg: 0}, {Code: FuseMul},
		{Code: FuseLoad, Arg: 0}, {Code: FuseConst, Val: 3}, {Code: FuseDiv},
		{Code: FuseSub},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return p, []FusedInput{DenseInput(x)}, NewDense(rows, cols)
}

// The compiled path as dispatched in production: flat template.
func BenchmarkFusedDispatchCompiled(b *testing.B) {
	p, ins, out := fusedDispatchSetup(b)
	if flat := p.kernelFor(ins).flat; flat != "cell.sigchain" {
		b.Fatalf("flat = %q, want cell.sigchain", flat)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FusedCellInto(out, p, ins)
	}
}

// The roofline: a hand-written loop with the tile-vectorized sigmoid.
func BenchmarkFusedDispatchHandWritten(b *testing.B) {
	_, ins, out := fusedDispatchSetup(b)
	x := ins[0].D.data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flatSigChain(out.data, x, 2, 1, 3)
	}
}

// The pre-vectorization roofline: hand-written loop, scalar math.Exp — what
// "hand-written" meant before the tile sigmoid existed.
func BenchmarkFusedDispatchHandScalarExp(b *testing.B) {
	_, ins, out := fusedDispatchSetup(b)
	x := ins[0].D.data
	dst := out.data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			m := x[j]*2 + 1
			dst[j] = Sigmoid(m)*x[j] - x[j]/3
		}
	}
}
