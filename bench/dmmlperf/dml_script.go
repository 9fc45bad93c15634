package main

import (
	"fmt"
	"math"
	"math/rand"

	"dmml/bench/scripts"
	"dmml/bench/trace"
	"dmml/internal/dml"
	"dmml/internal/la"
	"dmml/internal/opt"
)

// dml_script: the declarative path. One script (scripts/logreg.dml) is parsed,
// optimized against the bound shapes and run, per job, on an in-memory dense
// matrix: parser, analyzer, rewriter, fusion and the dense la kernels.

const (
	dmlCols    = 32
	dmlGDIters = 20 // the script's loop count
)

type dmlScript struct {
	trainBase
	cfg   config
	x     *la.Dense
	y     *la.Dense // n x 1 labels in {0,1}: what the job trains on
	yRef  []float64 // the same labels, for the reference
	stats *dml.EvalStats
}

func setupDMLScript(cfg config, _ string) (instance, error) {
	n := 200000
	if cfg.smoke {
		n = 4000
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	t := &dmlScript{cfg: cfg, x: la.NewDense(n, dmlCols), y: la.NewDense(n, 1), yRef: make([]float64, n)}
	for i := range t.x.RawData() {
		t.x.RawData()[i] = rng.NormFloat64()
	}
	wTrue := make([]float64, dmlCols)
	for j := range wTrue {
		wTrue[j] = rng.NormFloat64() / 4
	}
	for i, m := range la.MatVec(t.x, wTrue) {
		if rng.Float64() < opt.Sigmoid(m) {
			t.yRef[i] = 1
		}
	}
	copy(t.y.RawData(), t.yRef)
	t.trainBase = trainBase{job: t.job, reference: t.reference, tol: 1e-9, rowIters: float64(n) * dmlGDIters, minJobs: 3}
	if _, err := t.job(nil, -1, -1); err != nil { // warm-up
		return nil, err
	}
	return t, nil
}

func (t *dmlScript) job(lane *trace.Lane, parent int, id int64) ([]float64, error) {
	env := dml.Env{"X": dml.Matrix(t.x), "y": dml.Matrix(t.y)}
	sp := lane.Begin("dml.parse", parent, id)
	prog, err := dml.Parse(scripts.LogReg)
	lane.End(sp)
	if err != nil {
		return nil, err
	}
	sp = lane.Begin("dml.optimize", parent, id)
	prog = prog.Optimize(dml.ShapesFromEnv(env))
	lane.End(sp)
	sp = lane.Begin("dml.run", parent, id)
	val, stats, err := prog.Run(env)
	lane.End(sp)
	if err != nil {
		return nil, err
	}
	t.stats = stats
	w, b := env["w"].M, env["b"].M
	if !val.IsScalar || w == nil || b == nil {
		return nil, fmt.Errorf("script left value %v and w, b = %v, %v", val, w, b)
	}
	out := []float64{val.S, env["mse"].S}
	out = append(out, w.RawData()...)
	return append(out, b.RawData()...), nil
}

// reference is the script written by hand over la.
func (t *dmlScript) reference() ([]float64, error) {
	n := t.x.Rows()
	w := make([]float64, dmlCols)
	p := make([]float64, n)
	for it := 0; it < dmlGDIters; it++ {
		for i, m := range la.MatVec(t.x, w) {
			p[i] = 1/(1+math.Exp(-m)) - t.yRef[i]
		}
		la.Axpy(-0.5/float64(n), la.VecMat(p, t.x), w)
	}
	g := la.Gram(t.x)
	for j := 0; j < dmlCols; j++ {
		g.Set(j, j, g.At(j, j)+0.01)
	}
	b, err := la.SolveSPD(g, la.XtY(t.x, t.yRef))
	if err != nil {
		return nil, err
	}
	sse := 0.0
	for i, m := range la.MatVec(t.x, b) {
		sse += (m - t.yRef[i]) * (m - t.yRef[i])
	}
	mse := sse / float64(n)
	out := []float64{mse + la.Dot(w, w), mse}
	out = append(out, w...)
	return append(out, b...), nil
}

func (t *dmlScript) describe() []string {
	return []string{
		fmt.Sprintf("X %d x %d dense in memory (%d bytes), y %d x 1", t.x.Rows(), dmlCols, 8*t.x.Rows()*dmlCols, t.x.Rows()),
		fmt.Sprintf("job: dml.Parse + Optimize(shapes) + Run of scripts/logreg.dml (%d GD iterations, ridge solve, MSE), default fusion", dmlGDIters),
		"reference: the script written by hand over la, rel. tol. 1e-9 on the value, the MSE and both weight vectors",
	}
}

func (t *dmlScript) close() error { return nil }

func (t *dmlScript) layers(m *measurement, rec *trace.Recorder, reg registry) (map[string]float64, error) {
	st := rec.Stats()
	v := map[string]float64{
		"dml.parse_us":        spanMeanMS(st, "dml.parse") * 1e3,
		"dml.optimize_us":     spanMeanMS(st, "dml.optimize") * 1e3,
		"dml.run_ms":          spanMeanMS(st, "dml.run"),
		"dml.fused_regions":   float64(t.stats.FusedRegions),
		"dml.cells_allocated": float64(t.stats.CellsAllocated),
		"dml.cells_saved":     float64(t.stats.CellsSaved),
		"opt.rows_per_s":      m.throughput,
		// Computed, not measured by a hardware counter: the flops the la
		// kernels counted, over the time the script was running.
		"la.gflops": ratio(float64(reg.counters["la.flops"]), float64(st["dml.run"].TotalNs)),
	}

	// Direct calls on the script's shapes.
	n := t.x.Rows()
	w, dst, col := make([]float64, dmlCols), make([]float64, n), make([]float64, dmlCols)
	for j := range w {
		w[j] = math.Sin(float64(j + 1))
	}
	g := la.NewDense(dmlCols, dmlCols)
	v["la.gram_ms"] = timeLoop(t.cfg, func() { la.GramInto(g, t.x) }) / 1e6
	v["la.matvec_ms"] = timeLoop(t.cfg, func() { la.MatVecInto(dst, t.x, w) }) / 1e6
	v["la.vecmat_ms"] = timeLoop(t.cfg, func() { la.VecMatInto(col, dst, t.x) }) / 1e6
	sig, err := la.CompileFused([]la.FusedOp{{Code: la.FuseLoad, Arg: 0}, {Code: la.FuseSigmoid}}, 1)
	if err != nil {
		return nil, err
	}
	margins, err := la.NewDenseData(n, 1, dst)
	if err != nil {
		return nil, err
	}
	cell := la.NewDense(n, 1)
	v["la.fused_cell_ms"] = timeLoop(t.cfg, func() { la.FusedCellInto(cell, sig, []la.FusedInput{la.DenseInput(margins)}) }) / 1e6
	return v, nil
}
