package ml

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/workload"
)

func TestKMeansRecoversClusters(t *testing.T) {
	r := rand.New(rand.NewSource(114))
	x, truth, _ := workload.ClusteredPoints(r, 600, 4, 3, 0.5)
	m := &KMeans{K: 3, Seed: 7}
	if err := m.Fit(x); err != nil {
		t.Fatal(err)
	}
	if ari := AdjustedRandIndex(m.Assign, truth); ari < 0.98 {
		t.Fatalf("ARI = %v", ari)
	}
}

func TestKMeansPrunedMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(115))
	x, _, _ := workload.ClusteredPoints(r, 800, 6, 5, 1.0)
	exact := &KMeans{K: 5, Seed: 3}
	pruned := &KMeans{K: 5, Seed: 3, Pruned: true}
	if err := exact.Fit(x); err != nil {
		t.Fatal(err)
	}
	if err := pruned.Fit(x); err != nil {
		t.Fatal(err)
	}
	// Same seed → same init → identical clustering trajectories; final
	// inertia must agree tightly even if iteration details differ.
	ei, pi := exact.Inertia(x), pruned.Inertia(x)
	if math.Abs(ei-pi)/ei > 0.01 {
		t.Fatalf("inertia: exact %v vs pruned %v", ei, pi)
	}
	// The pruned variant must actually skip distance evaluations.
	if pruned.DistEval >= exact.DistEval {
		t.Fatalf("pruned evals %d ≥ exact %d", pruned.DistEval, exact.DistEval)
	}
}

func TestKMeansValidation(t *testing.T) {
	x := la.NewDense(5, 2)
	if err := (&KMeans{K: 0}).Fit(x); err == nil {
		t.Fatal("want K range error")
	}
	if err := (&KMeans{K: 6}).Fit(x); err == nil {
		t.Fatal("want K>n error")
	}
}

func TestKMeansPredictOne(t *testing.T) {
	r := rand.New(rand.NewSource(116))
	x, _, centers := workload.ClusteredPoints(r, 200, 3, 3, 0.2)
	m := &KMeans{K: 3, Seed: 1}
	if err := m.Fit(x); err != nil {
		t.Fatal(err)
	}
	// A true center must be assigned to the fitted center nearest it.
	c := m.PredictOne(centers.RowView(0))
	if c < 0 || c >= 3 {
		t.Fatalf("PredictOne = %d", c)
	}
}

func TestMetrics(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 2, 4}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy([]int{}, []int{}); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
	if got := R2([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 1 {
		t.Fatalf("perfect R2 = %v", got)
	}
	// ARI: identical partitions up to relabeling score 1.
	if got := AdjustedRandIndex([]int{0, 0, 1, 1}, []int{5, 5, 9, 9}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI = %v", got)
	}
}
