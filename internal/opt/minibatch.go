package opt

import "dmml/internal/la"

// BatchGradientInto writes the mini-batch gradient direction into grad:
//
//	grad = Σ_{k∈rows} ∂L/∂m(w·x_{off+k}, y_{off+k}) · x_{off+k}
//
// rows holds example indices relative to off; grad must have length
// data.Cols(). The caller applies the −step/|batch| scaling. The
// parameter-server workers compute their pushed gradients with it.
func BatchGradientInto(data *la.Dense, y, w []float64, loss Loss, rows []int, off int, grad []float64) {
	clear(grad)
	for _, k := range rows {
		i := off + k
		x := data.RowView(i)
		g := loss.Deriv(la.Dot(w, x), y[i])
		if g != 0 {
			la.Axpy(g, x, grad)
		}
	}
}
