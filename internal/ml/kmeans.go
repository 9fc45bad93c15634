// Package ml holds k-means (whose triangle-inequality pruning the E-ABL1
// ablation measures) and the evaluation metrics shared by the experiments
// and examples. Algorithms otherwise live as DML scripts over the engine's
// kernels, SystemML-style, or as opt solvers over its data sources.
package ml

import (
	"fmt"
	"math"
	"math/rand"

	"dmml/internal/la"
)

// KMeans clusters rows into K groups by Lloyd's algorithm with k-means++
// initialization. Pruned enables a triangle-inequality bound (Elkan-style
// single bound) that skips distance computations for points far inside their
// cluster, the classic data-system optimization for iterative ML.
type KMeans struct {
	K        int
	MaxIter  int // default 100
	Tol      float64
	Seed     int64
	Pruned   bool
	Centers  *la.Dense
	Assign   []int
	Iters    int
	DistEval int // number of point-center distance computations performed
}

// Fit clusters x. It returns an error for degenerate configurations.
func (m *KMeans) Fit(x *la.Dense) error {
	n, d := x.Dims()
	if m.K < 1 || m.K > n {
		return fmt.Errorf("ml: kmeans K=%d out of range for n=%d", m.K, n)
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.Centers = m.initPlusPlus(x, rng)
	m.Assign = make([]int, n)
	for i := range m.Assign {
		m.Assign[i] = -1
	}
	m.DistEval = 0

	// Upper bound on each point's distance to its assigned center (for the
	// pruned variant).
	upper := make([]float64, n)
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	centerShift := make([]float64, m.K)

	for it := 0; it < maxIter; it++ {
		m.Iters = it + 1
		// Pairwise center separations for the pruning test.
		var halfMinSep []float64
		if m.Pruned {
			halfMinSep = make([]float64, m.K)
			for c := range halfMinSep {
				halfMinSep[c] = math.Inf(1)
				for o := 0; o < m.K; o++ {
					if o == c {
						continue
					}
					sep := rowDist(m.Centers, c, o)
					if sep < halfMinSep[c] {
						halfMinSep[c] = sep
					}
				}
				halfMinSep[c] /= 2
			}
		}
		changed := 0
		for i := 0; i < n; i++ {
			cur := m.Assign[i]
			if m.Pruned && cur >= 0 {
				// Tighten the stale upper bound, then apply the triangle
				// inequality: if u(i) ≤ ½·min separation of its center, no
				// other center can be closer.
				if upper[i] <= halfMinSep[cur] {
					continue
				}
				upper[i] = m.dist(x, i, cur)
				if upper[i] <= halfMinSep[cur] {
					continue
				}
			}
			best, bestD := cur, math.Inf(1)
			if cur >= 0 {
				bestD = m.dist(x, i, cur)
			}
			for c := 0; c < m.K; c++ {
				if c == cur {
					continue
				}
				if dd := m.dist(x, i, c); dd < bestD {
					best, bestD = c, dd
				}
			}
			upper[i] = bestD
			if best != cur {
				m.Assign[i] = best
				changed++
			}
		}
		// Recompute centers.
		newCenters := la.NewDense(m.K, d)
		counts := make([]int, m.K)
		for i := 0; i < n; i++ {
			la.Axpy(1, x.RowView(i), newCenters.RowView(m.Assign[i]))
			counts[m.Assign[i]]++
		}
		for c := 0; c < m.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(newCenters.RowView(c), x.RowView(rng.Intn(n)))
				continue
			}
			la.ScaleVec(1/float64(counts[c]), newCenters.RowView(c))
		}
		maxShift := 0.0
		for c := 0; c < m.K; c++ {
			centerShift[c] = la.Norm2(la.SubVec(newCenters.RowView(c), m.Centers.RowView(c)))
			if centerShift[c] > maxShift {
				maxShift = centerShift[c]
			}
			// Bounds drift by the center movement.
		}
		for i := range upper {
			upper[i] += centerShift[m.Assign[i]]
		}
		m.Centers = newCenters
		if changed == 0 || maxShift < m.Tol {
			break
		}
	}
	return nil
}

func (m *KMeans) dist(x *la.Dense, i, c int) float64 {
	m.DistEval++
	return la.Norm2(la.SubVec(x.RowView(i), m.Centers.RowView(c)))
}

func rowDist(m *la.Dense, a, b int) float64 {
	return la.Norm2(la.SubVec(m.RowView(a), m.RowView(b)))
}

// initPlusPlus implements k-means++ seeding.
func (m *KMeans) initPlusPlus(x *la.Dense, rng *rand.Rand) *la.Dense {
	n, d := x.Dims()
	centers := la.NewDense(m.K, d)
	first := rng.Intn(n)
	copy(centers.RowView(0), x.RowView(first))
	minD2 := make([]float64, n)
	for i := range minD2 {
		diff := la.SubVec(x.RowView(i), centers.RowView(0))
		minD2[i] = la.Dot(diff, diff)
	}
	// Greedy k-means++: sample several candidates per seed and keep the one
	// that most reduces the potential, which makes the seeding robust to
	// single unlucky draws.
	trials := 2 + int(math.Log(float64(m.K)+1))*2
	sample := func() int {
		total := la.SumVec(minD2)
		if total <= 0 {
			return rng.Intn(n)
		}
		u := rng.Float64() * total
		acc := 0.0
		for i, v := range minD2 {
			acc += v
			if acc >= u {
				return i
			}
		}
		return n - 1
	}
	for c := 1; c < m.K; c++ {
		bestPick, bestPotential := -1, math.Inf(1)
		for t := 0; t < trials; t++ {
			pick := sample()
			potential := 0.0
			for i := range minD2 {
				diff := la.SubVec(x.RowView(i), x.RowView(pick))
				d2 := la.Dot(diff, diff)
				if d2 > minD2[i] {
					d2 = minD2[i]
				}
				potential += d2
			}
			if potential < bestPotential {
				bestPotential, bestPick = potential, pick
			}
		}
		copy(centers.RowView(c), x.RowView(bestPick))
		for i := range minD2 {
			diff := la.SubVec(x.RowView(i), centers.RowView(c))
			if d2 := la.Dot(diff, diff); d2 < minD2[i] {
				minD2[i] = d2
			}
		}
	}
	return centers
}

// Inertia returns the within-cluster sum of squared distances of the fit.
func (m *KMeans) Inertia(x *la.Dense) float64 {
	total := 0.0
	for i := 0; i < x.Rows(); i++ {
		diff := la.SubVec(x.RowView(i), m.Centers.RowView(m.Assign[i]))
		total += la.Dot(diff, diff)
	}
	return total
}
