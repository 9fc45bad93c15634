package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmml/internal/compress"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

func starDesign(t *testing.T, seed int64, factRows, dimRows int) (*factorized.JoinTree, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows:  factRows,
		FactFeats: 4,
		DimRows:   []int{dimRows},
		DimFeats:  []int{6},
		Task:      workload.RegressionTask,
		Noise:     0.05,
		DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := factorized.NewStar(s.FactX, s.FKs, s.DimX)
	if err != nil {
		t.Fatal(err)
	}
	return d, s.Y
}

func TestTrainNormalizedPicksFactorizedAtHighTupleRatio(t *testing.T) {
	d, y := starDesign(t, 180, 20000, 50) // TR = 400
	res, err := TrainNormalized(d, y, Task{Loss: SquaredLoss, L2: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "factorized") {
		t.Fatalf("plan = %s\n%s", res.Plan, ExplainString(res.Explain))
	}
	if res.FinalLoss > 0.1 {
		t.Fatalf("final loss = %v", res.FinalLoss)
	}
}

func TestTrainNormalizedPicksMaterializedAtLowTupleRatio(t *testing.T) {
	d, y := starDesign(t, 181, 200, 4000) // TR = 0.05: dims dominate
	res, err := TrainNormalized(d, y, Task{Loss: LogisticLoss, MaxIter: 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "materialized") {
		t.Fatalf("plan = %s\n%s", res.Plan, ExplainString(res.Explain))
	}
}

// snowflakeDesign is a 3-level tree: two branches off the fact table, one
// through a key-only link relation — fact→{customer→region,
// order(keys only)→product→category}.
func snowflakeDesign(t *testing.T, seed int64, factRows int) (*factorized.JoinTree, []float64) {
	t.Helper()
	s, err := workload.GenerateSnowflake(rand.New(rand.NewSource(seed)), workload.SnowflakeConfig{
		FactRows:  factRows,
		FactFeats: 3,
		Nodes: []workload.SnowNode{
			{Rows: 40, Feats: 4, Parent: -1},
			{Rows: 7, Feats: 3, Parent: 0},
			{Rows: 25, Feats: 0, Parent: -1},
			{Rows: 12, Feats: 2, Parent: 2},
			{Rows: 5, Feats: 3, Parent: 3},
		},
		Task:   workload.RegressionTask,
		Noise:  0.05,
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
	return tree, s.Y
}

// Every plan the planner enumerates must reach the same weights as every
// other plan with its solver, whatever the shape of the join tree.
func TestAllNormalizedPlansAgree(t *testing.T) {
	star, starY := starDesign(t, 182, 1500, 60)
	snow, snowY := snowflakeDesign(t, 192, 1500)
	shapes := []struct {
		name string
		tree *factorized.JoinTree
		y    []float64
	}{
		{"star", star, starY},
		{"3-level snowflake", snow, snowY},
	}
	task := Task{Loss: SquaredLoss, L2: 0.1, MaxIter: 60}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			costed, err := TrainNormalized(sh.tree, sh.y, task, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(costed.Explain) != 4 {
				t.Fatalf("explain has %d plans, want 4\n%s", len(costed.Explain), ExplainString(costed.Explain))
			}
			bySolver := map[string][]float64{} // first plan's weights per solver
			for _, p := range costed.Explain {
				res, err := TrainNormalized(sh.tree, sh.y, task, Options{ForcePlan: p.Name})
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				if res.Plan != p.Name {
					t.Fatalf("forced plan %s, got %s", p.Name, res.Plan)
				}
				solver := p.Name[strings.Index(p.Name, "+"):]
				ref, ok := bySolver[solver]
				if !ok {
					bySolver[solver] = res.W
					continue
				}
				for j := range ref {
					if math.Abs(ref[j]-res.W[j]) > 1e-7 {
						t.Fatalf("%s disagrees with the other %s plan at w[%d]: %v vs %v", p.Name, solver, j, res.W[j], ref[j])
					}
				}
			}
			if len(bySolver) != 2 {
				t.Fatalf("solvers seen = %d, want direct and iterative", len(bySolver))
			}
		})
	}
}

func TestLogisticExcludesDirectPlans(t *testing.T) {
	d, y := starDesign(t, 183, 500, 25)
	// Make labels ±1.
	for i := range y {
		if y[i] >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	res, err := TrainNormalized(d, y, Task{Loss: LogisticLoss, MaxIter: 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Explain {
		if strings.HasSuffix(p.Name, "direct") {
			t.Fatalf("direct plan offered for logistic loss: %+v", p)
		}
	}
}

func TestTrainJoinedDirectForSquared(t *testing.T) {
	r := rand.New(rand.NewSource(184))
	x, y, wTrue := workload.Regression(r, 3000, 8, 0.05)
	res, err := TrainJoined(x, y, Task{Loss: SquaredLoss, L2: 1e-6, MaxIter: 200}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// n·d² ≪ iters·4·n·d here? n·d²=192k vs 200·4·n·d=19.2M → direct wins.
	if res.Plan != "dense+direct" {
		t.Fatalf("plan = %s\n%s", res.Plan, ExplainString(res.Explain))
	}
	for j := range wTrue {
		if math.Abs(res.W[j]-wTrue[j]) > 0.05 {
			t.Fatalf("w[%d] = %v, true %v", j, res.W[j], wTrue[j])
		}
	}
}

func TestTrainJoinedCompressedUnderMemoryPressure(t *testing.T) {
	// Highly compressible categorical data + a memory budget far below the
	// dense footprint: the planner must pick the compressed plan.
	r := rand.New(rand.NewSource(185))
	n := 5000
	x := workload.TelemetryMatrix(r, n, []int{4, 6, 3, 8}, 1.2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if x.At(i, 0) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	res, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: 40},
		Options{memBudgetBytes: int64(8 * n)}) // budget = 1/4 of dense
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != "compressed+iterative" {
		t.Fatalf("plan = %s\n%s", res.Plan, ExplainString(res.Explain))
	}
	// And the compressed execution must match the dense execution.
	dense, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: 40},
		Options{ForcePlan: "dense+iterative"})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.W {
		if math.Abs(res.W[j]-dense.W[j]) > 1e-6 {
			t.Fatalf("compressed vs dense weights differ at %d: %v vs %v", j, res.W[j], dense.W[j])
		}
	}
}

// TestCompressedPlanPricedAsItRuns: the compressed plan runs a co-coded
// matrix, so its working set is priced from a co-coded probe: the dense
// bytes ÷ the co-coded sample's ratio, not an uncoded one's.
func TestCompressedPlanPricedAsItRuns(t *testing.T) {
	r := rand.New(rand.NewSource(187))
	n, d := 3000, 4
	x := la.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		// Columns 0 and 1, and 2 and 3, move together: two co-coded pairs.
		a, b := r.Intn(6), r.Intn(5)
		x.Set(i, 0, float64(a))
		x.Set(i, 1, float64(a%3*2))
		x.Set(i, 2, float64(b))
		x.Set(i, 3, float64(b*b-1))
		y[i] = float64(2*(a%2) - 1)
	}
	sample := x.Slice(0, compressSampleRows, 0, d)
	cocoded := compress.Compress(sample, compress.Options{CoCode: true})
	if len(cocoded.Groups()) == d {
		t.Fatalf("sample groups %v: not co-coded; test is vacuous", cocoded.GroupInfo())
	}
	if uncoded := compress.Compress(sample, compress.Options{}); uncoded.CompressionRatio() == cocoded.CompressionRatio() {
		t.Fatal("co-coding leaves the sample's ratio unchanged; test is vacuous")
	}
	res, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(float64(8*n*d) / cocoded.CompressionRatio())
	i := slices.IndexFunc(res.Explain, func(p PlanCost) bool { return p.Name == "compressed+iterative" })
	if i < 0 {
		t.Fatalf("no compressed plan\n%s", ExplainString(res.Explain))
	}
	if got := res.Explain[i].WorkingSetBytes; got != want {
		t.Fatalf("compressed plan working set %d bytes, want %d (dense %d ÷ co-coded ratio %.3f)",
			got, want, 8*n*d, cocoded.CompressionRatio())
	}
}

func TestForcePlanValidation(t *testing.T) {
	r := rand.New(rand.NewSource(186))
	x, y, _ := workload.Regression(r, 100, 3, 0.1)
	if _, err := TrainJoined(x, y, Task{}, Options{ForcePlan: "nonsense"}); err == nil {
		t.Fatal("want unknown plan error")
	}
	if _, err := TrainJoined(x, y[:10], Task{}, Options{}); err == nil {
		t.Fatal("want label mismatch error")
	}
	d, yy := starDesign(t, 187, 100, 10)
	if _, err := TrainNormalized(d, yy[:5], Task{}, Options{}); err == nil {
		t.Fatal("want label mismatch error")
	}
	if _, err := TrainNormalized(d, yy, Task{}, Options{ForcePlan: "bogus"}); err == nil {
		t.Fatal("want unknown plan error")
	}
}

func TestExplainIsSortedAndMarked(t *testing.T) {
	d, y := starDesign(t, 188, 2000, 40)
	res, err := TrainNormalized(d, y, Task{Loss: SquaredLoss, L2: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain) != 4 {
		t.Fatalf("explain has %d plans", len(res.Explain))
	}
	chosen := 0
	for i := 1; i < len(res.Explain); i++ {
		if res.Explain[i].EstFlops < res.Explain[i-1].EstFlops {
			t.Fatal("explain not sorted by cost")
		}
	}
	for _, p := range res.Explain {
		if p.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("%d plans marked chosen", chosen)
	}
	if !strings.Contains(ExplainString(res.Explain), "*") {
		t.Fatal("ExplainString missing the chosen marker")
	}
}

func TestSpillAdjustShiftsChoice(t *testing.T) {
	// Same data, two budgets: generous budget → dense; tight → compressed.
	r := rand.New(rand.NewSource(189))
	n := 4000
	x := workload.TelemetryMatrix(r, n, []int{3, 5}, 1.0)
	y := make([]float64, n)
	for i := range y {
		if la.Dot(x.RowView(i), []float64{1, -1}) >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	// Logistic has no direct plan, so representation is the contested choice.
	loose, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget above the compressed footprint (~8KB) but far below dense
	// (64KB): the compressed representation fits, paging is unnecessary.
	tight, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: 20},
		Options{memBudgetBytes: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Plan == "compressed+iterative" {
		t.Fatalf("loose budget picked %s", loose.Plan)
	}
	if tight.Plan != "compressed+iterative" {
		t.Fatalf("tight budget picked %s\n%s", tight.Plan, ExplainString(tight.Explain))
	}
}

func TestPagedPlanChosenForIncompressibleUnderBudget(t *testing.T) {
	// Continuous (incompressible) data with a hard memory budget: the paged
	// plan must win, and its model must match the dense plan's.
	r := rand.New(rand.NewSource(190))
	x, y, _ := workload.Regression(r, 4000, 8, 0.1)
	task := Task{Loss: LogisticLoss, MaxIter: 15}
	for i := range y {
		if y[i] >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	res, err := TrainJoined(x, y, task, Options{memBudgetBytes: 32 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != "paged+iterative" {
		t.Fatalf("plan = %s\n%s", res.Plan, ExplainString(res.Explain))
	}
	dense, err := TrainJoined(x, y, task, Options{ForcePlan: "dense+iterative"})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.W {
		if math.Abs(res.W[j]-dense.W[j]) > 1e-9 {
			t.Fatalf("paged w[%d] = %v, dense %v", j, res.W[j], dense.W[j])
		}
	}
}

func TestPagedPlanAbsentWithoutBudget(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	x, y, _ := workload.Regression(r, 500, 4, 0.1)
	res, err := TrainJoined(x, y, Task{Loss: SquaredLoss, L2: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Explain {
		if p.Name == "paged+iterative" {
			t.Fatal("paged plan offered without a memory budget")
		}
	}
}

// TestCostModelRankingByPredictedCost pins the corrected cost model's ranking
// on two adversarial shapes: a high-tuple-ratio star where the gather term is
// small relative to the avoided redundancy (factorized must be predicted
// cheaper) and a tiny fact over a huge dimension where factorized touches far
// more data than the join (materialized must be predicted cheaper). The old
// flat 2·n gather estimate got shapes like the second wrong. Measured plan
// times are printed, not asserted: E13's t_chosen/t_alternative columns.
func TestCostModelRankingByPredictedCost(t *testing.T) {
	shapes := []struct {
		name               string
		factRows, dimRows  int
		wantFactorizedWins bool
	}{
		{"high tuple ratio", 40000, 50, true},
		{"huge dimension", 2000, 100000, false},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(190))
			s, err := workload.GenerateStar(r, workload.StarConfig{
				FactRows:  sh.factRows,
				FactFeats: 4,
				DimRows:   []int{sh.dimRows},
				DimFeats:  []int{6},
				Task:      workload.ClassificationTask,
				Noise:     0.05,
				DimSignal: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := factorized.NewStar(s.FactX, s.FKs, s.DimX)
			if err != nil {
				t.Fatal(err)
			}
			res, err := TrainNormalized(d, s.Y, Task{Loss: LogisticLoss, MaxIter: 40}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			est := map[string]float64{}
			for _, p := range res.Explain {
				est[p.Name] = p.EstFlops
			}
			predFact := est["factorized+iterative"] < est["materialized+iterative"]
			if predFact != sh.wantFactorizedWins {
				t.Fatalf("model predicts factorized=%v, want %v\n%s",
					predFact, sh.wantFactorizedWins, ExplainString(res.Explain))
			}
		})
	}
}

// A spill read failing mid-training must come back from TrainJoined as a
// wrapped error naming the plan, for every read k the plan makes, with no
// panic from the block stream. The plan's matrix is dropped (no page stays
// pinned, so nothing stays resident), its temp spill directory is removed,
// and no goroutine outlives the call.
func TestPagedPlanSurfacesSpillReadFailure(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	injected := errors.New("disk on fire")
	var (
		bp     *storage.BufferPool
		reads  atomic.Int64
		failAt int64
	)
	newSpillPool = func(budget int64, dir string) (*storage.BufferPool, error) {
		var err error
		if bp, err = storage.NewBufferPoolBytes(budget, dir); err == nil {
			reads.Store(0)
			bp.SetFailureHooks(func(storage.PageID) error {
				if reads.Add(1) == failAt {
					return injected
				}
				return nil
			}, nil)
		}
		return bp, err
	}
	defer func() { newSpillPool = storage.NewBufferPoolBytes }()

	r := rand.New(rand.NewSource(193))
	x, y, _ := workload.Regression(r, 320, 8, 0.1)
	train := func() error {
		_, err := TrainJoined(x, y, Task{Loss: SquaredLoss, MaxIter: 2},
			Options{memBudgetBytes: 8 * 1024, ForcePlan: "paged+iterative"})
		return err
	}
	if err := train(); err != nil {
		t.Fatal(err)
	}
	total := reads.Load()
	if total < 2 {
		t.Fatalf("a clean run read %d spilled blocks; the sweep is vacuous", total)
	}
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		goroutines = min(goroutines, runtime.NumGoroutine())
	}
	for failAt = 1; failAt <= total; failAt++ {
		err := train()
		if !errors.Is(err, injected) || !strings.Contains(err.Error(), "paged+iterative") {
			t.Fatalf("read %d of %d failing: err = %v, want the injected failure under the plan's name", failAt, total, err)
		}
		if n := bp.ResidentBytes(); n != 0 {
			t.Fatalf("read %d of %d failing: %d bytes still resident; the plan's matrix was not dropped", failAt, total, n)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Fatalf("read %d of %d failing: spill dir survived: %v, %v", failAt, total, left, err)
		}
		// A joined goroutine may still be returning; a leaked one stays.
		n := runtime.NumGoroutine()
		for i := 0; i < 10000 && n > goroutines; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > goroutines {
			t.Fatalf("read %d of %d failing: %d goroutines, want %d", failAt, total, n, goroutines)
		}
	}
}

// The compressed plan hands the CLA matrix itself to gradient descent, so
// its *Into kernels are visible and a steady-state step allocates nothing:
// thirty extra iterations may only cost the loss history's amortized growth.
func TestCompressedPlanStepIsAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(194))
	n := 5000
	x := workload.TelemetryMatrix(r, n, []int{4, 6, 3, 8}, 1.2)
	y := make([]float64, n)
	for i := range y {
		if x.At(i, 0) == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := TrainJoined(x, y, Task{Loss: LogisticLoss, MaxIter: iters},
				Options{ForcePlan: "compressed+iterative"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan != "compressed+iterative" {
				t.Fatalf("plan = %s", res.Plan)
			}
		})
	}
	short, long := allocs(10), allocs(40)
	if perStep := (long - short) / 30; perStep >= 0.5 {
		t.Fatalf("compressed plan allocates %.2f objects per GD step (%v at 10 iters, %v at 40), want 0",
			perStep, short, long)
	}
}
