package hamlet

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/workload"
)

func TestDecideRule(t *testing.T) {
	rule := DefaultRule()
	// TR = 100k/1k = 100 ≥ 20 → avoid.
	d, err := rule.Decide(100000, 1000, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Avoid || d.TupleRatio != 100 {
		t.Fatalf("decision = %+v", d)
	}
	// TR = 2 < 20 → keep the join.
	d, err = rule.Decide(2000, 1000, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Avoid {
		t.Fatalf("decision = %+v, want keep", d)
	}
	if d.FeatureRatio != 0.5 {
		t.Fatalf("FR = %v", d.FeatureRatio)
	}
}

func TestDecideFeatureRatioBoost(t *testing.T) {
	rule := Rule{TupleRatioThreshold: 20, FeatureRatioBoost: true}
	// TR = 10 < 20, but FR = 4 lowers the effective threshold to 5 → avoid.
	d, err := rule.Decide(10000, 1000, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Avoid {
		t.Fatalf("decision = %+v, want avoid with FR boost", d)
	}
	// Without the boost the same schema keeps the join.
	d2, _ := DefaultRule().Decide(10000, 1000, 5, 20)
	if d2.Avoid {
		t.Fatalf("decision = %+v, want keep without boost", d2)
	}
}

func TestDecideValidation(t *testing.T) {
	if _, err := DefaultRule().Decide(0, 1, 1, 1); err == nil {
		t.Fatal("want cardinality error")
	}
	if _, err := (Rule{}).Decide(1, 1, 1, 1); err == nil {
		t.Fatal("want threshold error")
	}
}

func TestOneHot(t *testing.T) {
	oh, err := OneHot([]int{0, 2, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := oh.ToDense()
	if d.At(0, 0) != 1 || d.At(1, 2) != 1 || d.At(2, 1) != 1 || d.At(3, 2) != 1 {
		t.Fatalf("one-hot = %v", d)
	}
	if d.Sum() != 4 {
		t.Fatalf("one-hot row sums = %v", d.Sum())
	}
	if _, err := OneHot([]int{5}, 3); err == nil {
		t.Fatal("want out-of-range error")
	}
}

// High tuple ratio + no dimension signal: the rule says avoid, and the
// empirical gap confirms avoiding costs (almost) nothing.
func TestEmpiricalSafeToAvoid(t *testing.T) {
	r := rand.New(rand.NewSource(130))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows:  4000,
		FactFeats: 6,
		DimRows:   []int{40}, // TR = 100
		DimFeats:  []int{4},
		Task:      workload.ClassificationTask,
		Noise:     0.02,
		DimSignal: 0, // label carries no dimension signal
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareEmpirical(s, 1, DefaultRule(), 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Avoid {
		t.Fatalf("rule says keep at TR=100: %+v", res.Decision)
	}
	if gap := res.Gap(); math.Abs(gap) > 0.03 {
		t.Fatalf("accuracy gap = %v, want ≈ 0 when safe to avoid", gap)
	}
	if res.AccJoined < 0.9 {
		t.Fatalf("joined accuracy = %v, problem too hard for the test", res.AccJoined)
	}
}

// Low tuple ratio + strong dimension signal: the rule keeps the join; the
// one-hot representation underfits on held-out FKs, so the join must win.
func TestEmpiricalJoinNeeded(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows:  1500,
		FactFeats: 2,
		DimRows:   []int{750}, // TR = 2: each FK value seen ~2 times
		DimFeats:  []int{8},
		Task:      workload.ClassificationTask,
		Noise:     0.02,
		DimSignal: 3, // label dominated by dimension features
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareEmpirical(s, 1, DefaultRule(), 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision.Avoid {
		t.Fatalf("rule says avoid at TR=2: %+v", res.Decision)
	}
	if res.Gap() < 0.05 {
		t.Fatalf("gap = %v, want join clearly better when rule keeps it", res.Gap())
	}
}

func TestCompareEmpiricalValidation(t *testing.T) {
	r := rand.New(rand.NewSource(132))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 100, FactFeats: 2, DimRows: []int{10}, DimFeats: []int{2},
		Task: workload.RegressionTask, DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareEmpirical(s, 1, DefaultRule(), 0.2, 1); err == nil {
		t.Fatal("want classification-task error")
	}
	for _, node := range []int{0, 2} {
		if _, err := CompareEmpirical(s, node, DefaultRule(), 0.2, 1); err == nil {
			t.Fatalf("node %d: want not-a-dimension error", node)
		}
	}
	s.Config.Task = workload.ClassificationTask
	if _, err := CompareEmpirical(s, 1, DefaultRule(), 0, 1); err == nil {
		t.Fatal("want test fraction error")
	}
}
