package opt

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// LBFGSConfig configures the limited-memory BFGS optimizer.
type LBFGSConfig struct {
	// Memory is the number of correction pairs kept (default 8).
	Memory int
	// MaxIter bounds iterations (required > 0).
	MaxIter int
	// Tol stops when the gradient infinity-norm falls below it (default 1e-8).
	Tol float64
	// L2 regularization strength.
	L2 float64
}

// LBFGSResult reports the fit.
type LBFGSResult struct {
	W       []float64
	History []float64 // loss at each iteration (including final)
	Iters   int
}

// LBFGS minimizes the regularized empirical risk with the two-loop-recursion
// limited-memory BFGS method and a backtracking Armijo line search — the
// batch second-order solver declarative ML systems run when SGD's
// per-iteration cheapness is not worth its iteration count.
func LBFGS(data BulkData, y []float64, loss Loss, cfg LBFGSConfig) (*LBFGSResult, error) {
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("opt: LBFGS MaxIter must be > 0")
	}
	if data.Rows() != len(y) {
		return nil, fmt.Errorf("opt: %d labels for %d rows", len(y), data.Rows())
	}
	mem := cfg.Memory
	if mem <= 0 {
		mem = 8
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-8
	}
	d := data.Cols()
	// Every buffer is acquired once: an iteration, line-search probes
	// included, allocates nothing but a correction pair until the memory is
	// full, and then recycles the evicted one.
	margins := pool.GetF64(data.Rows())
	defer pool.PutF64(margins)
	derivs := pool.GetF64(data.Rows())
	defer pool.PutF64(derivs)
	w, wNew := make([]float64, d), make([]float64, d)
	grad, gNew := make([]float64, d), make([]float64, d)
	dir := make([]float64, d)
	alphas := make([]float64, mem)
	fw, err := lossAndGradientInto(data, y, w, loss, cfg.L2, margins, derivs, grad)
	if err != nil {
		return nil, err
	}

	type pair struct {
		s, yv []float64
		rho   float64
	}
	hist := make([]pair, 0, mem)
	spare := pair{s: make([]float64, d), yv: make([]float64, d)}
	res := &LBFGSResult{}
	for it := 0; it < cfg.MaxIter; it++ {
		res.History = append(res.History, fw)
		res.Iters = it + 1
		if la.NormInf(grad) < tol {
			break
		}
		// Two-loop recursion: dir = −H·grad.
		copy(dir, grad)
		for i := len(hist) - 1; i >= 0; i-- {
			alphas[i] = hist[i].rho * la.Dot(hist[i].s, dir)
			la.Axpy(-alphas[i], hist[i].yv, dir)
		}
		if n := len(hist); n > 0 {
			// Initial Hessian scaling γ = sᵀy / yᵀy.
			last := hist[n-1]
			gamma := la.Dot(last.s, last.yv) / la.Dot(last.yv, last.yv)
			la.ScaleVec(gamma, dir)
		}
		for i := range hist {
			beta := hist[i].rho * la.Dot(hist[i].yv, dir)
			la.Axpy(alphas[i]-beta, hist[i].s, dir)
		}
		la.ScaleVec(-1, dir)
		// Ensure descent; fall back to steepest descent otherwise.
		if la.Dot(dir, grad) >= 0 {
			copy(dir, grad)
			la.ScaleVec(-1, dir)
		}

		// Backtracking Armijo line search.
		step := 1.0
		gd := la.Dot(grad, dir)
		const c1 = 1e-4
		var fNew float64
		for {
			copy(wNew, w)
			la.Axpy(step, dir, wNew)
			fNew, err = lossAndGradientInto(data, y, wNew, loss, cfg.L2, margins, derivs, gNew)
			if err != nil {
				return nil, err
			}
			if fNew <= fw+c1*step*gd || step < 1e-14 {
				break
			}
			step /= 2
		}
		if step < 1e-14 && fNew > fw {
			// No progress possible along this direction; converged enough.
			break
		}
		for j := range spare.s {
			spare.s[j] = wNew[j] - w[j]
			spare.yv[j] = gNew[j] - grad[j]
		}
		if sy := la.Dot(spare.s, spare.yv); sy > 1e-12 {
			spare.rho = 1 / sy
			if len(hist) < mem {
				hist = append(hist, spare)
				spare = pair{s: make([]float64, d), yv: make([]float64, d)}
			} else {
				oldest := hist[0]
				copy(hist, hist[1:])
				hist[mem-1] = spare
				spare = oldest
			}
		}
		w, wNew = wNew, w
		grad, gNew = gNew, grad
		fw = fNew
	}
	res.History = append(res.History, fw)
	res.W = w
	return res, nil
}
