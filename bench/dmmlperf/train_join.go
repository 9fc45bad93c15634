package main

import (
	"fmt"
	"math/rand"

	"dmml/bench/trace"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/opt"
)

// train_join: logistic GD plus a ridge solve over a normalized snowflake
// schema, through the factorized pushdown kernels. The join is never
// materialized on the measured path.
//
// fact(n x 6) -> customer(10k x 10) -> region(50 x 30)
//            \-> product(15k x 8)  -> category(100 x 24)      joined width 78

type relation struct {
	rows, feats, parent int // parent is a node index; -1 for the fact table
}

const (
	joinGDIters = 30
	joinRidge   = 0.01
)

type trainJoin struct {
	trainBase
	nodes []factorized.Node
	edges []factorized.Edge
	y     []float64 // what the job trains on
	yRef  []float64 // what the reference trains on: the same labels, kept apart so a test can corrupt one side
	gd    opt.GDConfig
	width int
}

func setupTrainJoin(cfg config, _ string) (instance, error) {
	rels := []relation{{200000, 6, -1}, {10000, 10, 0}, {50, 30, 1}, {15000, 8, 0}, {100, 24, 3}}
	if cfg.smoke {
		rels = []relation{{4000, 6, -1}, {200, 10, 0}, {10, 30, 1}, {300, 8, 0}, {20, 24, 3}}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	t := &trainJoin{gd: opt.GDConfig{Step: 0.5, MaxIter: joinGDIters, Backtracking: true}}
	// Generate relation by relation, and push the planted model's margin down
	// the tree the same way: margin[v][r] is row r's own part plus its
	// children's, so labels cost one pass over each base table.
	t.nodes = make([]factorized.Node, len(rels))
	fks := make([][]int, len(rels))
	wTrue := make([][]float64, len(rels))
	for v, r := range rels {
		x := la.NewDense(r.rows, r.feats)
		for i := range x.RawData() {
			x.RawData()[i] = rng.NormFloat64()
		}
		t.nodes[v] = factorized.Node{X: x, Rows: r.rows}
		t.width += r.feats
		wTrue[v] = make([]float64, r.feats)
		for j := range wTrue[v] {
			wTrue[v][j] = rng.NormFloat64()
		}
		if v > 0 {
			fks[v] = make([]int, rels[r.parent].rows)
			for i := range fks[v] {
				fks[v][i] = rng.Intn(r.rows)
			}
			t.edges = append(t.edges, factorized.Edge{Parent: r.parent, Child: v, FK: fks[v]})
		}
	}
	margin := make([][]float64, len(rels))
	for v := len(rels) - 1; v >= 0; v-- { // children have higher indices than their parents
		margin[v] = la.MatVec(t.nodes[v].X, wTrue[v])
		for c := v + 1; c < len(rels); c++ {
			if rels[c].parent == v {
				for i := range margin[v] {
					margin[v][i] += margin[c][fks[c][i]]
				}
			}
		}
	}
	t.y = make([]float64, rels[0].rows)
	for i, m := range margin[0] {
		t.y[i] = 1
		if (m < 0) != (rng.Float64() < 0.05) { // 5% flipped, so the optimum is interior
			t.y[i] = -1
		}
	}
	t.yRef = append([]float64(nil), t.y...)

	t.trainBase = trainBase{job: t.job, reference: t.reference, tol: 1e-6, rowIters: float64(rels[0].rows) * joinGDIters, minJobs: 3}
	if _, err := t.job(nil, -1, -1); err != nil { // warm-up
		return nil, err
	}
	return t, nil
}

// tracedTree decorates the tree's BulkDataInto methods with spans, so the
// optimizer's calls into the factorized layer are timed from outside.
type tracedTree struct {
	*factorized.JoinTree
	lane   *trace.Lane
	parent int
	id     int64
}

func (t tracedTree) MatVecInto(dst, w []float64) []float64 {
	sp := t.lane.Begin("factorized.matvec", t.parent, t.id)
	defer t.lane.End(sp)
	return t.JoinTree.MatVecInto(dst, w)
}

func (t tracedTree) VecMatInto(dst, x []float64) []float64 {
	sp := t.lane.Begin("factorized.vecmat", t.parent, t.id)
	defer t.lane.End(sp)
	return t.JoinTree.VecMatInto(dst, x)
}

func (t *trainJoin) job(lane *trace.Lane, parent int, id int64) ([]float64, error) {
	sp := lane.Begin("factorized.build", parent, id)
	tree, err := factorized.NewJoinTree(t.nodes, t.edges)
	lane.End(sp)
	if err != nil {
		return nil, err
	}

	sp = lane.Begin("opt.gd", parent, id)
	var data opt.BulkData = tree
	if lane != nil {
		data = tracedTree{tree, lane, sp, id}
	}
	res, err := opt.GradientDescent(data, t.y, opt.Logistic{}, t.gd)
	lane.End(sp)
	if err != nil {
		return nil, err
	}

	sp = lane.Begin("factorized.gram", parent, id)
	g := tree.Gram()
	lane.End(sp)
	sp = lane.Begin("factorized.vecmat", parent, id)
	c := tree.XtY(t.y)
	lane.End(sp)
	sp = lane.Begin("la.solve_spd", parent, id)
	w, err := ridgeSolve(g, c)
	lane.End(sp)
	if err != nil {
		return nil, err
	}
	return []float64{res.History[len(res.History)-1], la.Dot(w, c) / float64(len(t.y))}, nil
}

func ridgeSolve(g *la.Dense, c []float64) ([]float64, error) {
	for j := 0; j < g.Cols(); j++ {
		g.Set(j, j, g.At(j, j)+joinRidge)
	}
	return la.SolveSPD(g, c)
}

// reference runs the same solver configuration over the materialized join
// with the dense kernels.
func (t *trainJoin) reference() ([]float64, error) {
	tree, err := factorized.NewJoinTree(t.nodes, t.edges)
	if err != nil {
		return nil, err
	}
	m := tree.Materialize()
	res, err := opt.GradientDescent(opt.DenseData{M: m}, t.yRef, opt.Logistic{}, t.gd)
	if err != nil {
		return nil, err
	}
	c := la.XtY(m, t.yRef)
	w, err := ridgeSolve(la.Gram(m), c)
	if err != nil {
		return nil, err
	}
	return []float64{res.History[len(res.History)-1], la.Dot(w, c) / float64(len(t.yRef))}, nil
}

func (t *trainJoin) describe() []string {
	s := fmt.Sprintf("snowflake: fact %d x %d", t.nodes[0].Rows, t.nodes[0].X.Cols())
	for _, e := range t.edges {
		s += fmt.Sprintf(", node %d -> node %d (%d x %d)", e.Parent, e.Child, t.nodes[e.Child].Rows, t.nodes[e.Child].X.Cols())
	}
	return []string{
		s + fmt.Sprintf("; joined width %d", t.width),
		fmt.Sprintf("job: NewJoinTree + GradientDescent(logistic, %d iterations, backtracking) + ridge normal equations (Gram, XtY, SolveSPD)", joinGDIters),
		"reference: the same solver configuration over tree.Materialize() with dense la kernels, rel. tol. 1e-6",
	}
}

func (t *trainJoin) close() error { return nil }

func (t *trainJoin) layers(m *measurement, rec *trace.Recorder, reg registry) (map[string]float64, error) {
	st := rec.Stats()
	epochs := float64(reg.counters["opt.gd.epochs"])
	v := map[string]float64{
		"factorized.build_ms":  spanMeanMS(st, "factorized.build"),
		"factorized.matvec_ms": spanMeanMS(st, "factorized.matvec"),
		"factorized.vecmat_ms": spanMeanMS(st, "factorized.vecmat"),
		"factorized.gram_ms":   spanMeanMS(st, "factorized.gram"),
		"factorized.flops_pushdown_share": ratio(float64(reg.counters["factorized.flops.pushdown"]),
			float64(reg.counters["factorized.flops.materialized"])),
		"opt.gd_iters":         epochs / float64(m.attempted),
		"opt.gd_iter_ms":       reg.timerMeanMS("opt.gd.epoch"),
		"opt.self_ms_per_iter": ratio(float64(st["opt.gd"].SelfNs), epochs) / 1e6,
		"opt.rows_per_s":       m.throughput,
		"la.solve_spd_ms":      spanMeanMS(st, "la.solve_spd"),
	}
	return v, nil
}
