// Package featureng provides the Columbus-style feature-subset exploration
// the paper surveys: linear-model exploration over many feature subsets that
// reuses one Gram-matrix computation across all subsets instead of
// rescanning the data per subset.
package featureng

import (
	"fmt"
	"math/rand"

	"dmml/internal/la"
)

// SubsetFit is the result of fitting a ridge linear model on one feature
// subset.
type SubsetFit struct {
	Subset   []int
	W        []float64
	TrainMSE float64
}

// ExploreStats reports the work an exploration performed, the quantity
// Columbus optimizes.
type ExploreStats struct {
	// DataPasses counts full scans over the n×d data matrix.
	DataPasses int
	// SolveFlops estimates the cubic solve work (Σ d_s³).
	SolveFlops float64
}

// Explorer runs feature-subset exploration for ridge linear regression, the
// core Columbus workload: evaluate many candidate feature sets cheaply.
type Explorer struct {
	// Reuse computes the full Gram matrix XᵀX and correlation vector Xᵀy once
	// and answers every subset from sub-blocks — Columbus's key optimization.
	// When false each subset rescans the data (the naive baseline).
	Reuse bool
	// CoresetFrac, when in (0,1), fits on a uniform row sample of that
	// fraction instead of all rows (Columbus's sampling optimization).
	CoresetFrac float64
	// Seed drives coreset sampling.
	Seed int64
	// L2 is the ridge penalty (must be > 0 for rank-deficient subsets).
	L2 float64
}

// Explore fits every subset and reports per-subset models plus work stats.
func (e *Explorer) Explore(x *la.Dense, y []float64, subsets [][]int) ([]SubsetFit, ExploreStats, error) {
	n, d := x.Dims()
	if len(y) != n {
		return nil, ExploreStats{}, fmt.Errorf("featureng: %d labels for %d rows", len(y), n)
	}
	if len(subsets) == 0 {
		return nil, ExploreStats{}, fmt.Errorf("featureng: no subsets to explore")
	}
	for _, s := range subsets {
		if len(s) == 0 {
			return nil, ExploreStats{}, fmt.Errorf("featureng: empty subset")
		}
		for _, c := range s {
			if c < 0 || c >= d {
				return nil, ExploreStats{}, fmt.Errorf("featureng: column %d out of range for %d cols", c, d)
			}
		}
	}

	work := x
	yWork := y
	var stats ExploreStats
	if e.CoresetFrac > 0 && e.CoresetFrac < 1 {
		rng := rand.New(rand.NewSource(e.Seed))
		m := int(float64(n) * e.CoresetFrac)
		if m < len(subsets[0])+1 {
			m = min(n, len(subsets[0])+1)
		}
		rows := rng.Perm(n)[:m]
		work = x.SelectRows(rows)
		yWork = make([]float64, m)
		for i, r := range rows {
			yWork[i] = y[r]
		}
	}

	if e.Reuse {
		return e.exploreReuse(work, yWork, subsets, &stats)
	}
	return e.exploreNaive(work, yWork, subsets, &stats)
}

func (e *Explorer) exploreNaive(x *la.Dense, y []float64, subsets [][]int, stats *ExploreStats) ([]SubsetFit, ExploreStats, error) {
	out := make([]SubsetFit, 0, len(subsets))
	xty := make([]float64, x.Cols()) // reused across subsets; sliced per size
	for _, s := range subsets {
		sub := x.SelectCols(s)
		stats.DataPasses++ // one scan to build the subset Gram
		g := la.Gram(sub)
		for j := range s {
			g.Set(j, j, g.At(j, j)+e.L2)
		}
		c := la.XtYInto(xty[:len(s)], sub, y)
		w, err := la.SolveSPD(g, c)
		if err != nil {
			return nil, *stats, fmt.Errorf("featureng: subset %v: %w", s, err)
		}
		stats.SolveFlops += cube(len(s))
		out = append(out, SubsetFit{Subset: append([]int(nil), s...), W: w, TrainMSE: trainMSE(g, c, w, y, e.L2)})
	}
	return out, *stats, nil
}

func (e *Explorer) exploreReuse(x *la.Dense, y []float64, subsets [][]int, stats *ExploreStats) ([]SubsetFit, ExploreStats, error) {
	// One pass builds the full Gram and correlations; every subset is then
	// answered from sub-blocks with zero additional data scans.
	gFull := la.Gram(x)
	cFull := la.XtY(x, y)
	stats.DataPasses = 1
	out := make([]SubsetFit, 0, len(subsets))
	for _, s := range subsets {
		k := len(s)
		g := la.NewDense(k, k)
		c := make([]float64, k)
		for a, ca := range s {
			c[a] = cFull[ca]
			for b, cb := range s {
				g.Set(a, b, gFull.At(ca, cb))
			}
		}
		for j := 0; j < k; j++ {
			g.Set(j, j, g.At(j, j)+e.L2)
		}
		w, err := la.SolveSPD(g, c)
		if err != nil {
			return nil, *stats, fmt.Errorf("featureng: subset %v: %w", s, err)
		}
		stats.SolveFlops += cube(k)
		out = append(out, SubsetFit{Subset: append([]int(nil), s...), W: w, TrainMSE: trainMSE(g, c, w, y, e.L2)})
	}
	return out, *stats, nil
}

// trainMSE computes mean squared error from Gram-space quantities without a
// data pass: ‖Xw−y‖² = wᵀ(XᵀX)w − 2wᵀXᵀy + yᵀy. The Gram passed in includes
// the ridge term, which is subtracted back out.
func trainMSE(gPlusRidge *la.Dense, c, w, y []float64, l2 float64) float64 {
	gw := la.MatVec(gPlusRidge, w)
	wGw := la.Dot(w, gw) - l2*la.Dot(w, w)
	yy := la.Dot(y, y)
	n := float64(len(y))
	mse := (wGw - 2*la.Dot(w, c) + yy) / n
	if mse < 0 {
		mse = 0 // numerical floor
	}
	return mse
}

func cube(k int) float64 { return float64(k) * float64(k) * float64(k) }
