package opt

import (
	"fmt"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// Data is a bulk solver's source: its shape, plus one of the two contracts
// that embed it — BulkData (in memory, cannot fail) or BlockData (a fallible
// block stream). A source that is neither is an error at the solver's entry.
type Data interface {
	Rows() int
	Cols() int
}

// BulkData is the in-memory source contract: X·v and xᵀ·X computed into
// caller-owned buffers, so an iteration reuses one set of buffers. Dense
// matrices satisfy it through the adapter below; compressed matrices and
// factorized join trees implement it themselves.
type BulkData interface {
	Data
	// MatVecInto computes X·v into dst (length Rows) and returns dst.
	MatVecInto(dst, v []float64) []float64
	// VecMatInto computes xᵀ·X into dst (length Cols) and returns dst.
	VecMatInto(dst, x []float64) []float64
}

// DenseData adapts *la.Dense to BulkData.
type DenseData struct{ M *la.Dense }

// Rows implements BulkData.
func (d DenseData) Rows() int { return d.M.Rows() }

// Cols implements BulkData.
func (d DenseData) Cols() int { return d.M.Cols() }

// MatVecInto implements BulkData.
func (d DenseData) MatVecInto(dst, v []float64) []float64 { return la.MatVecInto(dst, d.M, v) }

// VecMatInto implements BulkData.
func (d DenseData) VecMatInto(dst, x []float64) []float64 { return la.VecMatInto(dst, x, d.M) }

var _ BulkData = DenseData{}

// LossAndGradient computes the mean loss and its gradient at w, including an
// L2 penalty of λ/2·‖w‖² (bias-inclusive; exclude the bias by passing λ=0
// and regularizing externally if needed). It fails on a label count other
// than Rows or a weight count other than Cols, and where
// lossAndGradientInto does.
func LossAndGradient(data Data, y, w []float64, loss Loss, l2 float64) (float64, []float64, error) {
	if len(y) != data.Rows() {
		return 0, nil, fmt.Errorf("opt: %d labels for %d rows", len(y), data.Rows())
	}
	if len(w) != data.Cols() {
		return 0, nil, fmt.Errorf("opt: %d weights for %d columns", len(w), data.Cols())
	}
	grad := make([]float64, data.Cols())
	margins := pool.GetF64(data.Rows())
	derivs := pool.GetF64(data.Rows())
	v, err := lossAndGradientInto(data, y, w, loss, l2, margins, derivs, grad)
	pool.PutF64(margins)
	pool.PutF64(derivs)
	if err != nil {
		return 0, nil, err
	}
	return v, grad, nil
}

// lossAndGradientInto is LossAndGradient with caller-owned buffers: margins
// and derivs have length Rows, grad length Cols, so the evaluation allocates
// nothing. The error is a BlockData source failing mid-pass (e.g. a spill
// read), or a source that implements neither contract; BulkData sources
// never return one.
func lossAndGradientInto(data Data, y, w []float64, loss Loss, l2 float64, margins, derivs, grad []float64) (float64, error) {
	n := data.Rows()
	if len(y) != n {
		panic(fmt.Sprintf("opt: %d labels for %d rows", len(y), n))
	}
	switch src := data.(type) {
	case BlockData:
		// Out-of-core sources stream block-by-block: one pass, bounded
		// resident memory, prefetch handled by the source.
		return lossAndGradientStream(src, y, w, loss, l2, margins, derivs, grad)
	case BulkData:
		src.MatVecInto(margins, w)
		total := loss.Batch(derivs, margins, y, data.Cols())
		src.VecMatInto(grad, derivs)
		invN := 1 / float64(n)
		for j := range grad {
			grad[j] = grad[j]*invN + l2*w[j]
		}
		return total*invN + 0.5*l2*la.Dot(w, w), nil
	}
	return 0, fmt.Errorf("opt: source %T is neither BulkData nor BlockData", data)
}

// GDConfig configures full-batch gradient descent.
type GDConfig struct {
	Step    float64 // initial step size (required > 0)
	L2      float64 // L2 regularization strength
	MaxIter int     // maximum iterations (required > 0)
	Tol     float64 // stop when |Δloss| < Tol (0 disables)
	// Backtracking halves the step while the update does not decrease the
	// loss, making plain GD robust to an aggressive Step.
	Backtracking bool
}

// GDResult reports the fit.
type GDResult struct {
	W       []float64
	History []float64 // loss per iteration (before each step), incl. final
	Iters   int
}

// GradientDescent minimizes the regularized empirical risk by full-batch
// gradient descent.
func GradientDescent(data Data, y []float64, loss Loss, cfg GDConfig) (*GDResult, error) {
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("opt: GD step must be > 0, got %v", cfg.Step)
	}
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("opt: GD MaxIter must be > 0, got %d", cfg.MaxIter)
	}
	if data.Rows() != len(y) {
		return nil, fmt.Errorf("opt: %d labels for %d rows", len(y), data.Rows())
	}
	d := data.Cols()
	n := data.Rows()
	// Iteration state lives in scratch buffers reused across the whole run:
	// the loop allocates nothing after warm-up.
	// Defer arguments are evaluated here, so each defer releases the buffer
	// acquired on its own line even though the variables are swapped below —
	// the swaps only permute the same six buffers among the six names. (The
	// one-defer-per-buffer form also lets dmmlvet's scratchpair analyzer
	// prove the pairing.)
	w := pool.GetF64Zeroed(d)
	defer pool.PutF64(w)
	cand := pool.GetF64(d)
	defer pool.PutF64(cand)
	grad := pool.GetF64(d)
	defer pool.PutF64(grad)
	candGrad := pool.GetF64(d)
	defer pool.PutF64(candGrad)
	margins := pool.GetF64(n)
	defer pool.PutF64(margins)
	derivs := pool.GetF64(n)
	defer pool.PutF64(derivs)
	res := &GDResult{}
	step := cfg.Step
	prev, err := lossAndGradientInto(data, y, w, loss, cfg.L2, margins, derivs, grad)
	if err != nil {
		return nil, err
	}
	for it := 0; it < cfg.MaxIter; it++ {
		epochSW := mGDEpochTimer.Start()
		mGDEpochs.Inc()
		mGDLoss.Set(prev)
		res.History = append(res.History, prev)
		copy(cand, w)
		la.Axpy(-step, grad, cand)
		cur, err := lossAndGradientInto(data, y, cand, loss, cfg.L2, margins, derivs, candGrad)
		for err == nil && cfg.Backtracking && cur > prev && step > 1e-12 {
			step /= 2
			copy(cand, w)
			la.Axpy(-step, grad, cand)
			cur, err = lossAndGradientInto(data, y, cand, loss, cfg.L2, margins, derivs, candGrad)
		}
		if err != nil {
			epochSW.Stop()
			return nil, err
		}
		w, cand = cand, w
		grad, candGrad = candGrad, grad
		res.Iters = it + 1
		epochSW.Stop()
		if cfg.Tol > 0 && abs(prev-cur) < cfg.Tol {
			prev = cur
			break
		}
		prev = cur
	}
	res.History = append(res.History, prev)
	res.W = la.CloneVec(w)
	return res, nil
}

//dmml:noalloc
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
