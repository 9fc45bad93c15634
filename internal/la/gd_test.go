package la_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmml/internal/factorized"
	"dmml/internal/opt"
	"dmml/internal/pool"
	"dmml/internal/workload"
)

// TestGradientDescentBitReproducibleForcedParallel: gradient descent over
// dense and join-tree sources just over the pool's gate runs its MatVec and
// VecMat kernels on multi-chunk grids through the pool, and still returns the
// same W and History bits on every repeat at GOMAXPROCS 1, 2 and 4.
func TestGradientDescentBitReproducibleForcedParallel(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	// 6600×20, 132 000 scalar ops: over the gate, nine VecMat chunks of 824
	// rows.
	const rows, cols = 6600, 20
	if g := pool.Grain(rows, cols, cols); g >= rows {
		t.Fatalf("%dx%d is one %d-row chunk", rows, cols, g)
	}
	x, y, _ := workload.Classification(r, rows, cols, 0.05)
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  rows,
		FactFeats: cols,
		Nodes:     []workload.SnowNode{{Rows: 100, Feats: 3, Parent: -1}},
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
	cfg := opt.GDConfig{Step: 0.5, MaxIter: 5, Backtracking: true}
	for _, tc := range []struct {
		name string
		data opt.BulkData
		y    []float64
		loss opt.Loss
	}{
		{"dense", opt.DenseData{M: x}, y, opt.Logistic{}},
		{"join tree", tree, s.Y, opt.Squared{}},
	} {
		var first *opt.GDResult
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				res, err := opt.GradientDescent(tc.data, tc.y, tc.loss, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = res
				} else if !sameBits(res.W, first.W) || !sameBits(res.History, first.History) {
					t.Errorf("%s: GOMAXPROCS=%d rep %d: W or History differs from the first run", tc.name, procs, rep)
				}
			}
			runtime.GOMAXPROCS(old)
		}
	}
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
