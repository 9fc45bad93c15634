package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dmml/internal/factorized"
	"dmml/internal/opt"
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
	d, err := factorized.NewStar(s.X[0], s.FKs[1:], s.X[1:])
	if err != nil {
		t.Fatal(err)
	}
	return d, s.Y
}

func TestTrainNormalizedPicksFactorizedAtHighTupleRatio(t *testing.T) {
	d, y := starDesign(t, 180, 20000, 50) // TR = 400
	res, err := TrainNormalized(d, y, Task{Loss: opt.Squared{}, L2: 0.01}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "factorized") {
		t.Fatalf("plan = %s\n%+v", res.Plan, res.Explain)
	}
	if res.FinalLoss > 0.1 {
		t.Fatalf("final loss = %v", res.FinalLoss)
	}
}

func TestTrainNormalizedPicksMaterializedAtLowTupleRatio(t *testing.T) {
	d, y := starDesign(t, 181, 200, 4000) // TR = 0.05: dims dominate
	res, err := TrainNormalized(d, y, Task{Loss: opt.Logistic{}, MaxIter: 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Plan, "materialized") {
		t.Fatalf("plan = %s\n%+v", res.Plan, res.Explain)
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
	task := Task{Loss: opt.Squared{}, L2: 0.1, MaxIter: 60}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			costed, err := TrainNormalized(sh.tree, sh.y, task, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(costed.Explain) != 4 {
				t.Fatalf("explain has %d plans, want 4\n%+v", len(costed.Explain), costed.Explain)
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
	res, err := TrainNormalized(d, y, Task{Loss: opt.Logistic{}, MaxIter: 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Explain {
		if strings.HasSuffix(p.Name, "direct") {
			t.Fatalf("direct plan offered for logistic loss: %+v", p)
		}
	}
}

func TestForcePlanValidation(t *testing.T) {
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
	res, err := TrainNormalized(d, y, Task{Loss: opt.Squared{}, L2: 0.01}, Options{})
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
			d, err := factorized.NewStar(s.X[0], s.FKs[1:], s.X[1:])
			if err != nil {
				t.Fatal(err)
			}
			res, err := TrainNormalized(d, s.Y, Task{Loss: opt.Logistic{}, MaxIter: 40}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			est := map[string]float64{}
			for _, p := range res.Explain {
				est[p.Name] = p.EstFlops
			}
			predFact := est["factorized+iterative"] < est["materialized+iterative"]
			if predFact != sh.wantFactorizedWins {
				t.Fatalf("model predicts factorized=%v, want %v\n%+v",
					predFact, sh.wantFactorizedWins, res.Explain)
			}
		})
	}
}
