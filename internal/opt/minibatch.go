package opt

import "dmml/internal/la"

// BatchGradientInto writes the L2-regularized mini-batch gradient direction
// into grad:
//
//	grad = l2·w + Σ_{k∈rows} ∂L/∂m(w·x_{off+k}, y_{off+k}) · x_{off+k}
//
// rows holds example indices relative to off; grad must have length
// data.Cols(). The caller applies the −step/|batch| scaling. The
// parameter-server workers compute their pushed gradients with it.
func BatchGradientInto(data *la.Dense, y, w []float64, loss Loss, l2 float64, rows []int, off int, grad []float64) {
	for j := range grad {
		grad[j] = l2 * w[j]
	}
	for _, k := range rows {
		i := off + k
		x := data.RowView(i)
		g := loss.Deriv(la.Dot(w, x), y[i])
		if g != 0 {
			la.Axpy(g, x, grad)
		}
	}
}
