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
	if ari := adjustedRandIndex(m.Assign, truth); ari < 0.98 {
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

func TestMetrics(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 2, 4}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy([]int{}, []int{}); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
	// ARI: identical partitions up to relabeling score 1.
	if got := adjustedRandIndex([]int{0, 0, 1, 1}, []int{5, 5, 9, 9}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI = %v", got)
	}
}

// adjustedRandIndex scores a clustering against ground-truth assignments
// (1 = identical partitions up to relabeling, ~0 = random); it is the
// clustering tests' reference metric.
func adjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	n := len(a)
	cont := map[[2]int]int{}
	aCount := map[int]int{}
	bCount := map[int]int{}
	for i := 0; i < n; i++ {
		cont[[2]int{a[i], b[i]}]++
		aCount[a[i]]++
		bCount[b[i]]++
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumCont, sumA, sumB float64
	for _, v := range cont {
		sumCont += choose2(v)
	}
	for _, v := range aCount {
		sumA += choose2(v)
	}
	for _, v := range bCount {
		sumB += choose2(v)
	}
	total := choose2(n)
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1
	}
	return (sumCont - expected) / (maxIdx - expected)
}
