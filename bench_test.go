// Package dmml's root benchmark suite: one testing.B benchmark per
// experiment in EXPERIMENTS.md (quick scale), plus micro-benchmarks of the
// kernels the experiments lean on. Run everything with:
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

func benchExperiment(b *testing.B, fn func(bool) (experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(true)
		if err != nil {
			b.Fatalf("%s: %v", tbl.ID, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", tbl.ID)
		}
	}
}

func BenchmarkE1FactorizedVsMaterialized(b *testing.B) {
	benchExperiment(b, experiments.E1FactorizedVsMaterialized)
}

func BenchmarkE2HamletRule(b *testing.B) {
	benchExperiment(b, experiments.E2HamletRule)
}

func BenchmarkE3CompressionRatio(b *testing.B) {
	benchExperiment(b, experiments.E3CompressionRatio)
}

func BenchmarkE4CompressedMV(b *testing.B) {
	benchExperiment(b, experiments.E4CompressedMV)
}

func BenchmarkE5Rewrites(b *testing.B) {
	benchExperiment(b, experiments.E5Rewrites)
}

func BenchmarkE6BismarckParallel(b *testing.B) {
	benchExperiment(b, experiments.E6BismarckParallel)
}

func BenchmarkE7ModelSearch(b *testing.B) {
	benchExperiment(b, experiments.E7ModelSearch)
}

func BenchmarkE8ColumbusReuse(b *testing.B) {
	benchExperiment(b, experiments.E8ColumbusReuse)
}

func BenchmarkE9ParamServer(b *testing.B) {
	benchExperiment(b, experiments.E9ParamServer)
}

func BenchmarkE10SparseVsDense(b *testing.B) {
	benchExperiment(b, experiments.E10SparseVsDense)
}

func BenchmarkE11BufferPool(b *testing.B) {
	benchExperiment(b, experiments.E11BufferPool)
}

func BenchmarkE12ReuseAcrossCV(b *testing.B) {
	benchExperiment(b, experiments.E12ReuseAcrossCV)
}

func BenchmarkE13PlannerChoice(b *testing.B) {
	benchExperiment(b, experiments.E13PlannerChoice)
}

func BenchmarkE14FaultTolerance(b *testing.B) {
	benchExperiment(b, experiments.E14FaultTolerance)
}

func BenchmarkE15Fusion(b *testing.B) {
	benchExperiment(b, experiments.E15Fusion)
}

func BenchmarkE17OutOfCoreTraining(b *testing.B) {
	benchExperiment(b, experiments.E17OutOfCoreTraining)
}

func BenchmarkE18FactorizedSnowflake(b *testing.B) {
	benchExperiment(b, experiments.E18FactorizedSnowflake)
}

func BenchmarkAblationKMeansPruning(b *testing.B) {
	benchExperiment(b, experiments.EKMeansPruning)
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
	design, err := factorized.NewStar(s.FactX, s.FKs, s.DimX)
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

func BenchmarkAblationCoCoding(b *testing.B) {
	benchExperiment(b, experiments.EColumnCoCoding)
}
