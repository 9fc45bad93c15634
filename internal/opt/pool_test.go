package opt

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dmml/internal/compress"
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
// warm scratch, the GD inner-loop evaluation must not allocate — over a
// dense matrix and over a co-coded CLA matrix, whose kernels draw their
// scratch from pools.
func TestLossAndGradientZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(70))
	x, y := randProblem(r, 400, 30)
	tel := workload.TelemetryMatrix(r, 5000, []int{4, 6, 3, 8}, 1.2)
	telY := make([]float64, tel.Rows())
	for i := range telY {
		telY[i] = float64(2*int(tel.At(i, 0))%4 - 1)
	}
	for _, c := range []struct {
		name string
		data BulkData
		y    []float64
	}{
		{"dense", DenseData{M: x}, y},
		{"compressed", compress.Compress(tel, compress.Options{CoCode: true}), telY},
	} {
		n, d := c.data.Rows(), c.data.Cols()
		w := make([]float64, d)
		for j := range w {
			w[j] = r.NormFloat64()
		}
		grad := make([]float64, d)
		margins := pool.GetF64(n)
		derivs := pool.GetF64(n)
		step := func() {
			if _, err := lossAndGradientInto(c.data, c.y, w, Logistic{}, 0.01, margins, derivs, grad); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm up
		if a := testing.AllocsPerRun(50, step); a != 0 {
			t.Errorf("%s: lossAndGradientInto allocates %v per run, want 0", c.name, a)
		}
		pool.PutF64(margins)
		pool.PutF64(derivs)
	}
}

// LossAndGradient refuses a label count other than Rows and a weight count
// other than Cols with an error, for in-memory and streamed sources alike.
func TestLossAndGradientShapeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	x, y := randProblem(r, 50, 4)
	for _, data := range []Data{DenseData{M: x}, &fakeBlocks{m: x, blockRows: 8, failAt: -1}} {
		if _, _, err := LossAndGradient(data, y[:49], make([]float64, 4), Logistic{}, 0); err == nil ||
			!strings.Contains(err.Error(), "49 labels for 50 rows") {
			t.Errorf("%T: labels mismatch err = %v", data, err)
		}
		if _, _, err := LossAndGradient(data, y, make([]float64, 3), Logistic{}, 0); err == nil ||
			!strings.Contains(err.Error(), "3 weights for 4 columns") {
			t.Errorf("%T: weights mismatch err = %v", data, err)
		}
	}
}

// gdBitStable runs gradient descent over data 20 times at each of GOMAXPROCS
// 1, 2 and 4 and fails unless every run returns the first run's W and
// History bit for bit. It returns the first run.
func gdBitStable(t *testing.T, name string, data BulkData, y []float64, loss Loss, cfg GDConfig) *GDResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *GDResult
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			res, err := GradientDescent(data, y, loss, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				continue
			}
			if !sameBits(res.W, first.W) || !sameBits(res.History, first.History) {
				t.Fatalf("%s: GOMAXPROCS=%d rep %d: W %v History %v, first run W %v History %v",
					name, procs, rep, res.W, res.History, first.W, first.History)
			}
		}
	}
	return first
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGradientDescentProcsEquivalent: every reduction under gradient descent
// sums a fixed grid in index order, so a GD run lands on the same model, to
// the bit, at every core count and on every repeat.
func TestGradientDescentProcsEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	x, y := randProblem(r, 600, 20)
	res := gdBitStable(t, "dense 600x20", DenseData{M: x}, y, Logistic{}, GDConfig{Step: 0.5, MaxIter: 30, Backtracking: true})
	t.Logf("History[0] = %x", math.Float64bits(res.History[0]))
}

// TestGradientDescentBitReproducible extends the property to every BulkData
// source, at sizes where each reduction on the path spans several chunks and
// clears the pool's gate: the loss pass, dense VecMat, compressed MatVec and
// VecMat (row ranges and concurrent column groups) and the join tree's fact
// VecMat and scatterAdd.
func TestGradientDescentBitReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	cfg := GDConfig{Step: 0.5, MaxIter: 4, Backtracking: true}
	x, y := randProblem(r, 20000, 16)
	gdBitStable(t, "dense", DenseData{M: x}, y, Logistic{}, cfg)

	cards := make([]int, 16)
	for j := range cards {
		cards[j] = 2 + j
	}
	tel := workload.TelemetryMatrix(r, 20000, cards, 1)
	if g := len(compress.Compress(tel, compress.Options{}).Groups()); g <= 4 {
		t.Fatalf("compressed source has %d column groups, want several to run concurrently", g)
	}
	gdBitStable(t, "compressed", compress.Compress(tel, compress.Options{}), y, Logistic{}, cfg)

	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  70000,
		FactFeats: 4,
		Nodes:     []workload.SnowNode{{Rows: 2000, Feats: 3, Parent: -1}},
		Task:      workload.RegressionTask,
		Signal:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := factorized.NewJoinTree(
		[]factorized.Node{{X: s.X[0], Rows: s.Rows[0]}, {X: s.X[1], Rows: s.Rows[1]}},
		[]factorized.Edge{{Parent: 0, Child: 1, FK: s.FKs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	gdBitStable(t, "join tree", tree, s.Y, Squared{}, GDConfig{Step: 0.05, MaxIter: 4, Backtracking: true})
}

// TestParallelSGDStillLearns: the pool-scheduled parallel strategies must
// keep converging (loss shrinking vs the zero model) for both modes.
func TestParallelSGDStillLearns(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(72))
	x, y := randProblem(r, 2000, 15)
	cfg := SGDConfig{Step: 0.5, Decay: 0.5, Epochs: 3, Seed: 9}
	zeroLoss := MeanLoss(x, y, make([]float64, 15), Logistic{})
	for _, mode := range []ParallelMode{ModelAverage, SharedAtomic} {
		res, err := ParallelSGD(x, y, Logistic{}, cfg, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		final := res.EpochLoss[len(res.EpochLoss)-1]
		if final > 0.5*zeroLoss {
			t.Errorf("mode %d: final loss %v not well below zero-model loss %v", mode, final, zeroLoss)
		}
	}
}

// snowflakeTree generates a snowflake and builds its JoinTree.
func snowflakeTree(t *testing.T, r *rand.Rand, cfg workload.SnowflakeConfig) (*workload.Snowflake, *factorized.JoinTree) {
	t.Helper()
	s, err := workload.GenerateSnowflake(r, cfg)
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
	return s, tree
}

// TestJoinTreeGDStepZeroAllocSteadyState: the acceptance property of the
// join-tree engine — a full GD inner-loop evaluation over a 3-level
// snowflake JoinTree (MatVecInto through the tree, loss, VecMatInto back)
// allocates nothing once the tree and pool scratch are warm.
func TestJoinTreeGDStepZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r := rand.New(rand.NewSource(72))
	s, tree := snowflakeTree(t, r, workload.SnowflakeConfig{
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

// allocsPerRunHere is testing.AllocsPerRun at the current GOMAXPROCS —
// AllocsPerRun pins GOMAXPROCS to 1, where every pass stays under the pool's
// gate. Like AllocsPerRun it returns the mallocs of every goroutine (here the
// pool's helpers too) over runs calls of f after one warm-up call, divided
// by runs in integers: a stray runtime allocation (a thread's stack, a
// semaphore waiter) does not count, one per call does.
func allocsPerRunHere(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestJoinTreeGDStepZeroAllocParallel: the same evaluation under the
// logistic loss at GOMAXPROCS 2, over a fact table large enough that every
// fact-granularity pass clears the pool's gate — the dense MatVecInto and
// VecMatInto, the edge gathers and group-sums, and the loss batch — so each
// dispatches through the pool, and still allocates nothing.
func TestJoinTreeGDStepZeroAllocParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const factRows, factFeats = 70000, 2
	r := rand.New(rand.NewSource(73))
	s, tree := snowflakeTree(t, r, workload.SnowflakeConfig{
		FactRows:  factRows,
		FactFeats: factFeats,
		Nodes: []workload.SnowNode{
			{Rows: 300, Feats: 4, Parent: -1},
			{Rows: 20, Feats: 3, Parent: 0},
			{Rows: 200, Feats: 2, Parent: -1},
		},
		Task:   workload.ClassificationTask,
		Signal: 1,
	})
	n, d := tree.Rows(), tree.Cols()
	for _, c := range []struct {
		pass string
		work int
	}{{"fact MatVecInto/VecMatInto", factRows * factFeats}, {"edge gather/group-sum", 2 * factRows}, {"loss batch", n * d}} {
		if !pool.Parallel(c.work) {
			t.Fatalf("%s: %d scalar ops stay under the pool's gate", c.pass, c.work)
		}
	}
	w := make([]float64, d)
	for j := range w {
		w[j] = 0.3 * r.NormFloat64()
	}
	grad := make([]float64, d)
	margins := pool.GetF64(n)
	derivs := pool.GetF64(n)
	step := func() { lossAndGradientInto(tree, s.Y, w, Logistic{}, 0.01, margins, derivs, grad) }
	// Warm up: a reduction's partials in flight at once depend on the
	// schedule, so the scratch pool takes a few calls to hold its peak.
	for i := 0; i < 10; i++ {
		step()
	}
	if a := allocsPerRunHere(50, step); a != 0 {
		t.Errorf("JoinTree GD step at GOMAXPROCS 2 allocates %v per run, want 0", a)
	}
	pool.PutF64(margins)
	pool.PutF64(derivs)
}
