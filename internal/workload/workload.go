// Package workload generates the synthetic datasets used across dmml's
// tests, examples, and experiment harness. Every generator takes an explicit
// *rand.Rand so runs are reproducible, and exposes the knobs the paper's
// surveyed experiments sweep: dimensionality, sparsity, Zipf skew,
// tuple ratio and feature ratio of normalized schemas, and label noise.
package workload

import (
	"math"
	"math/rand"

	"dmml/internal/la"
)

// Regression generates X (n×d, standard normal), y = X·wTrue + noise·ε, and
// the true weights.
func Regression(r *rand.Rand, n, d int, noise float64) (x *la.Dense, y, wTrue []float64) {
	x = la.NewDense(n, d)
	wTrue = make([]float64, d)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for j := range row {
			row[j] = r.NormFloat64()
		}
	}
	y = la.MatVec(x, wTrue)
	for i := range y {
		y[i] += noise * r.NormFloat64()
	}
	return x, y, wTrue
}

// Classification generates a ±1 problem: y = sign(X·wTrue), with a fraction
// flip of labels flipped to inject noise.
func Classification(r *rand.Rand, n, d int, flip float64) (x *la.Dense, y, wTrue []float64) {
	x, margins, wTrue := Regression(r, n, d, 0)
	y = make([]float64, n)
	for i, m := range margins {
		if m >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		if r.Float64() < flip {
			y[i] = -y[i]
		}
	}
	return x, y, wTrue
}

// SparseMatrix generates a CSR matrix with the given density of standard
// normal non-zeros. It fails only on a non-positive shape.
func SparseMatrix(r *rand.Rand, rows, cols int, density float64) (*la.CSR, error) {
	var coords []la.Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coords = append(coords, la.Coord{Row: i, Col: j, Val: r.NormFloat64()})
			}
		}
	}
	return la.FromCoords(rows, cols, coords)
}

// Zipf samples n categorical codes in [0, card) with probability ∝
// 1/(rank+1)^skew. skew = 0 is uniform; larger skews concentrate mass on few
// categories (the regime where CLA compression shines).
func Zipf(r *rand.Rand, n, card int, skew float64) []int {
	if card < 1 {
		panic("workload: Zipf card < 1")
	}
	cum := make([]float64, card)
	total := 0.0
	for k := 0; k < card; k++ {
		total += 1 / math.Pow(float64(k+1), skew)
		cum[k] = total
	}
	out := make([]int, n)
	for i := range out {
		u := r.Float64() * total
		lo, hi := 0, card-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

// ZipfColumn renders Zipf codes as a float64 column (category k ↦ value k).
func ZipfColumn(r *rand.Rand, n, card int, skew float64) []float64 {
	codes := Zipf(r, n, card, skew)
	out := make([]float64, n)
	for i, c := range codes {
		out[i] = float64(c)
	}
	return out
}

// TelemetryMatrix builds an n×d matrix of independent Zipf-skewed categorical
// columns with the given cardinalities, mimicking machine-telemetry logs.
func TelemetryMatrix(r *rand.Rand, n int, cards []int, skew float64) *la.Dense {
	m := la.NewDense(n, len(cards))
	for j, card := range cards {
		col := ZipfColumn(r, n, card, skew)
		for i, v := range col {
			m.Set(i, j, v)
		}
	}
	return m
}

// ClusteredPoints generates n points in d dimensions around k Gaussian
// centers with the given within-cluster spread. It returns the points, the
// true assignment of each point, and the centers.
func ClusteredPoints(r *rand.Rand, n, d, k int, spread float64) (x *la.Dense, assign []int, centers *la.Dense) {
	centers = la.NewDense(k, d)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			centers.Set(c, j, 10*r.NormFloat64())
		}
	}
	x = la.NewDense(n, d)
	assign = make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		assign[i] = c
		row := x.RowView(i)
		for j := 0; j < d; j++ {
			row[j] = centers.At(c, j) + spread*r.NormFloat64()
		}
	}
	return x, assign, centers
}
