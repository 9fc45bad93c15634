package opt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/pool"
	"dmml/internal/workload"
)

func randProblem(r *rand.Rand, n, d int) (*la.Dense, []float64) {
	x := la.NewDense(n, d)
	y := make([]float64, n)
	wTrue := make([]float64, d)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		if la.Dot(row, wTrue) > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return x, y
}

// TestLossAndGradientZeroAllocSteadyState: with a BulkData source and
// warm scratch, the GD inner-loop evaluation must not allocate.
func TestLossAndGradientZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(70))
	x, y := randProblem(r, 400, 30)
	data := DenseData{M: x}
	w := make([]float64, 30)
	grad := make([]float64, 30)
	margins := pool.GetF64(400)
	derivs := pool.GetF64(400)
	lossAndGradientInto(data, y, w, Logistic{}, 0.01, margins, derivs, grad) // warm up
	if a := testing.AllocsPerRun(50, func() {
		lossAndGradientInto(data, y, w, Logistic{}, 0.01, margins, derivs, grad)
	}); a != 0 {
		t.Errorf("lossAndGradientInto allocates %v per run, want 0", a)
	}
	pool.PutF64(margins)
	pool.PutF64(derivs)
}

// TestGradientDescentProcsEquivalent: the pooled kernels only reassociate
// floating-point sums, so a GD run must land on (numerically) the same model
// at GOMAXPROCS=1 and GOMAXPROCS=N.
func TestGradientDescentProcsEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	x, y := randProblem(r, 600, 20)
	cfg := GDConfig{Step: 0.5, MaxIter: 30, Backtracking: true}
	run := func() *GDResult {
		res, err := GradientDescent(DenseData{M: x}, y, Logistic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	old := runtime.GOMAXPROCS(1)
	serial := run()
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
	parallel := run()
	runtime.GOMAXPROCS(old)
	if len(serial.W) != len(parallel.W) {
		t.Fatalf("dimension mismatch")
	}
	for j := range serial.W {
		if d := serial.W[j] - parallel.W[j]; math.Abs(d) > 1e-6 {
			t.Errorf("W[%d] differs by %g across proc counts", j, d)
		}
	}
}

// TestParallelSGDStillLearns: the pool-scheduled parallel strategies must
// keep converging (loss shrinking vs the zero model) for both modes.
func TestParallelSGDStillLearns(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(72))
	x, y := randProblem(r, 2000, 15)
	cfg := SGDConfig{Step: 0.5, Decay: 0.5, Epochs: 3, Seed: 9}
	zeroLoss := MeanLoss(DenseRows{M: x}, y, make([]float64, 15), Logistic{})
	for _, mode := range []ParallelMode{ModelAverage, SharedAtomic} {
		res, err := ParallelSGD(DenseRows{M: x}, y, Logistic{}, cfg, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		final := res.EpochLoss[len(res.EpochLoss)-1]
		if final > 0.5*zeroLoss {
			t.Errorf("mode %d: final loss %v not well below zero-model loss %v", mode, final, zeroLoss)
		}
	}
}

// TestJoinTreeGDStepZeroAllocSteadyState: the acceptance property of the
// join-tree engine — a full GD inner-loop evaluation over a 3-level
// snowflake JoinTree (MatVecInto through the tree, loss, VecMatInto back)
// allocates nothing once the tree and pool scratch are warm.
func TestJoinTreeGDStepZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(72))
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  600,
		FactFeats: 3,
		Nodes: []workload.SnowNode{
			{Rows: 40, Feats: 4, Parent: -1},
			{Rows: 8, Feats: 3, Parent: 0},
			{Rows: 25, Feats: 2, Parent: -1},
		},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]factorized.Node, len(s.X))
	var edges []factorized.Edge
	for v := range s.X {
		nodes[v] = factorized.Node{X: s.X[v], Rows: s.Rows[v]}
		if v > 0 {
			edges = append(edges, factorized.Edge{Parent: s.Parents[v], Child: v, FK: s.FKs[v]})
		}
	}
	tree, err := factorized.NewJoinTree(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	n, d := tree.Rows(), tree.Cols()
	w := make([]float64, d)
	grad := make([]float64, d)
	margins := pool.GetF64(n)
	derivs := pool.GetF64(n)
	lossAndGradientInto(tree, s.Y, w, Squared{}, 0.01, margins, derivs, grad) // warm up
	if a := testing.AllocsPerRun(50, func() {
		lossAndGradientInto(tree, s.Y, w, Squared{}, 0.01, margins, derivs, grad)
	}); a != 0 {
		t.Errorf("JoinTree GD step allocates %v per run, want 0", a)
	}
	pool.PutF64(margins)
	pool.PutF64(derivs)
}
