// Package dmml's root benchmark suite: one sub-benchmark per experiment in
// EXPERIMENTS.md (quick scale), plus micro-benchmarks of the kernels the
// experiments lean on. Run everything with:
//
//	go test -bench=. -benchmem
package dmml

import (
	"math/rand"
	"testing"

	"dmml/internal/compress"
	"dmml/internal/experiments"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// BenchmarkExperiments runs every experiment of experiments.All at quick
// scale as a sub-benchmark named by its ID (`-bench 'Experiments/^E4$'`).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(true)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatalf("%s produced no rows", e.ID)
				}
			}
		})
	}
}

// --- kernel micro-benchmarks ------------------------------------------------

func BenchmarkKernelGEMM(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, _, _ := workload.Regression(r, 256, 256, 0)
	y, _, _ := workload.Regression(r, 256, 256, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.MatMul(x, y)
	}
}

func BenchmarkKernelGram(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x, _, _ := workload.Regression(r, 20000, 32, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.Gram(x)
	}
}

func BenchmarkKernelDenseMatVec(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x, _, _ := workload.Regression(r, 100000, 32, 0)
	v := make([]float64, 32)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la.MatVec(x, v)
	}
}

func BenchmarkKernelCSRMatVec(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	sp, err := workload.SparseMatrix(r, 100000, 256, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, 256)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.MatVec(v)
	}
}

func BenchmarkKernelCompressedMatVec(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	m := workload.TelemetryMatrix(r, 100000, []int{8, 16, 32, 4}, 1.0)
	cm := compress.Compress(m, compress.Options{CoCode: true})
	v := make([]float64, 4)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.MatVec(v)
	}
}

func BenchmarkKernelFactorizedMatVec(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 100000, FactFeats: 4,
		DimRows: []int{1000}, DimFeats: []int{30},
		Task: workload.RegressionTask, DimSignal: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	design, err := factorized.NewStar(s.X[0], s.FKs[1:], s.X[1:])
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, design.Cols())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		design.MatVecInto(make([]float64, design.Rows()), w)
	}
}

func BenchmarkKernelSGDEpoch(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, y, _ := workload.Classification(r, 50000, 32, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SGD(x, y, opt.Logistic{},
			opt.SGDConfig{Step: 0.5, Epochs: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
