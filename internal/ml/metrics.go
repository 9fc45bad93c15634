package ml

import "math"

// Accuracy is the fraction of equal entries in pred and truth.
func Accuracy[T comparable](pred, truth []T) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	n := 0
	for i := range pred {
		if pred[i] == truth[i] {
			n++
		}
	}
	return float64(n) / float64(len(pred))
}

// R2 is the coefficient of determination.
func R2(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		ssRes += (truth[i] - pred[i]) * (truth[i] - pred[i])
		ssTot += (truth[i] - mean) * (truth[i] - mean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// AdjustedRandIndex scores a clustering against ground-truth assignments
// (1 = identical partitions up to relabeling, ~0 = random).
func AdjustedRandIndex(a, b []int) float64 {
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
