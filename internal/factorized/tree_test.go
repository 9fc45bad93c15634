package factorized

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// The join tree is the zero-alloc bulk source the optimizer trains over.
var (
	_ opt.BulkData = (*JoinTree)(nil)
)

// treeFromSnowflake converts a generated workload schema into engine form.
func treeFromSnowflake(t *testing.T, s *workload.Snowflake) *JoinTree {
	t.Helper()
	tr, err := joinTreeFromSnowflake(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func joinTreeFromSnowflake(s *workload.Snowflake) (*JoinTree, error) {
	nodes := make([]Node, len(s.X))
	var edges []Edge
	for v := range s.X {
		nodes[v] = Node{X: s.X[v], Rows: s.Rows[v]}
		if v > 0 {
			edges = append(edges, Edge{Parent: s.Parents[v], Child: v, FK: s.FKs[v]})
		}
	}
	return NewJoinTree(nodes, edges)
}

// testSnowflake is the canonical 3-level shape: two branches off the fact
// table, each with a second-level relation, plus a key-only link relation in
// one branch — fact→{customer→region, order(keys only)→product→category}.
func testSnowflake(t *testing.T, seed int64, factRows int) *workload.Snowflake {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  factRows,
		FactFeats: 3,
		Nodes: []workload.SnowNode{
			{Rows: 40, Feats: 4, Parent: -1}, // customer
			{Rows: 7, Feats: 3, Parent: 0},   // region ← customer
			{Rows: 25, Feats: 0, Parent: -1}, // order (key-only link)
			{Rows: 12, Feats: 2, Parent: 2},  // product ← order
			{Rows: 5, Feats: 3, Parent: 3},   // category ← product
		},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNewJoinTreeValidation(t *testing.T) {
	x4 := la.NewDense(4, 2)
	x3 := la.NewDense(3, 2)
	cases := []struct {
		name  string
		nodes []Node
		edges []Edge
	}{
		{"no nodes", nil, nil},
		{"key-only without rows", []Node{{}}, nil},
		{"rows mismatch", []Node{{X: x4, Rows: 5}}, nil},
		{"edge to missing node", []Node{{X: x4}}, []Edge{{Parent: 0, Child: 1, FK: []int{0, 0, 0, 0}}}},
		{"root as child", []Node{{X: x4}, {X: x3}}, []Edge{{Parent: 1, Child: 0, FK: []int{0, 0, 0}}}},
		{"self edge", []Node{{X: x4}, {X: x3}}, []Edge{{Parent: 1, Child: 1, FK: []int{0, 0, 0}}}},
		{"two parents", []Node{{X: x4}, {X: x3}},
			[]Edge{{Parent: 0, Child: 1, FK: []int{0, 0, 0, 0}}, {Parent: 0, Child: 1, FK: []int{1, 1, 1, 1}}}},
		{"fk length", []Node{{X: x4}, {X: x3}}, []Edge{{Parent: 0, Child: 1, FK: []int{0, 0}}}},
		{"fk out of range", []Node{{X: x4}, {X: x3}}, []Edge{{Parent: 0, Child: 1, FK: []int{0, 1, 3, 0}}}},
		{"unreachable node", []Node{{X: x4}, {X: x3}}, nil},
		{"no feature columns", []Node{{Rows: 4}, {Rows: 3}}, []Edge{{Parent: 0, Child: 1, FK: []int{0, 0, 0, 0}}}},
	}
	for _, tc := range cases {
		if _, err := NewJoinTree(tc.nodes, tc.edges); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}

	tr, err := NewJoinTree(
		[]Node{{X: x4}, {X: x3}},
		[]Edge{{Parent: 0, Child: 1, FK: []int{0, 1, 2, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows() != 4 || tr.Cols() != 4 || tr.NumNodes() != 2 || tr.Offset(1) != 2 {
		t.Fatalf("rows=%d cols=%d nodes=%d off1=%d", tr.Rows(), tr.Cols(), tr.NumNodes(), tr.Offset(1))
	}
}

// All four pushdown kernels must agree with the materialized join on a
// three-level snowflake with a key-only link relation.
func TestJoinTreeMatchesMaterializedSnowflake(t *testing.T) {
	s := testSnowflake(t, 200, 300)
	tr := treeFromSnowflake(t, s)
	m := s.Materialize()
	if got := tr.Materialize(); !got.Equal(m, 1e-12) {
		t.Fatal("JoinTree.Materialize != workload materialization")
	}
	r := rand.New(rand.NewSource(201))
	w := randVec(r, tr.Cols())
	if d := maxAbsDiff(tr.MatVec(w), la.MatVec(m, w)); d > 1e-9 {
		t.Fatalf("MatVec max diff %g", d)
	}
	x := randVec(r, tr.Rows())
	if d := maxAbsDiff(tr.VecMat(x), la.VecMat(x, m)); d > 1e-9 {
		t.Fatalf("VecMat max diff %g", d)
	}
	if d := maxAbsDiff(tr.XtY(x), la.XtY(m, x)); d > 1e-9 {
		t.Fatalf("XtY max diff %g", d)
	}
	if !tr.Gram().Equal(la.Gram(m), 1e-7) {
		t.Fatal("factorized Gram != materialized Gram")
	}
}

// Siblings under a non-root LCA exercise both cross-block strategies: the
// narrow pair count-passes, the wide pair pushes.
func TestJoinTreeSiblingLCA(t *testing.T) {
	r := rand.New(rand.NewSource(210))
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  250,
		FactFeats: 2,
		Nodes: []workload.SnowNode{
			{Rows: 30, Feats: 0, Parent: -1}, // mid link relation
			{Rows: 6, Feats: 2, Parent: 0},   // sibling u under mid
			{Rows: 5, Feats: 3, Parent: 0},   // sibling v under mid (6·5 ≤ 30: count path)
			{Rows: 40, Feats: 2, Parent: 0},  // wide sibling (40·6 > 30: push path)
		},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := treeFromSnowflake(t, s)
	kinds := map[crossKind]int{}
	for _, p := range tr.cross {
		kinds[p.kind]++
	}
	if kinds[crossCount] == 0 || kinds[crossPush] == 0 || kinds[crossAncestor] == 0 {
		t.Fatalf("want all three cross strategies exercised, got %v", kinds)
	}
	if !tr.Gram().Equal(la.Gram(s.Materialize()), 1e-8) {
		t.Fatal("sibling-LCA Gram != materialized Gram")
	}
}

// Permuting the dimension order of a star permutes the Gram blocks
// consistently: Gram(perm)[pi,pj] must equal Gram(orig)[i,j] under the
// induced column permutation, and MatVec must agree under permuted weights.
func TestJoinsOrderingInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(220))
	s, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 120, FactFeats: 2,
		DimRows: []int{10, 7, 13}, DimFeats: []int{3, 2, 4},
		Task: workload.RegressionTask, DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewStar(s.FactX, s.FKs, s.DimX)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{2, 0, 1} // dimension k of d2 is dimension perm[k] of d1
	fks2 := make([][]int, len(perm))
	dims2 := make([]*la.Dense, len(perm))
	for k, p := range perm {
		fks2[k] = s.FKs[p]
		dims2[k] = s.DimX[p]
	}
	d2, err := NewStar(s.FactX, fks2, dims2)
	if err != nil {
		t.Fatal(err)
	}
	// colMap[j2] = j1: column j2 of d2 is column colMap[j2] of d1.
	colMap := make([]int, d2.Cols())
	for j := 0; j < s.Config.FactFeats; j++ {
		colMap[j] = j
	}
	at := s.Config.FactFeats
	for k, p := range perm {
		off1 := d1.Offset(p + 1)
		for j := 0; j < dims2[k].Cols(); j++ {
			colMap[at] = off1 + j
			at++
		}
	}
	g1, g2 := d1.Gram(), d2.Gram()
	for i2 := 0; i2 < d2.Cols(); i2++ {
		for j2 := 0; j2 < d2.Cols(); j2++ {
			if math.Abs(g2.At(i2, j2)-g1.At(colMap[i2], colMap[j2])) > 1e-9 {
				t.Fatalf("Gram[%d,%d] not permutation-consistent", i2, j2)
			}
		}
	}
	w1 := randVec(rand.New(rand.NewSource(221)), d1.Cols())
	w2 := make([]float64, d2.Cols())
	for j2, j1 := range colMap {
		w2[j2] = w1[j1]
	}
	if d := maxAbsDiff(d1.MatVec(w1), d2.MatVec(w2)); d > 1e-10 {
		t.Fatalf("MatVec not ordering-invariant, max diff %g", d)
	}
}

// Push chains: on this tree the fact table's chain through node 3 has a
// member that continues from the previous member's table ([3 1] → [3 1 2])
// and one that restarts from the first-hop table ([3 1 4]), and node 3 is an
// ancestor with a higher index than its descendants, so its chain closes
// transposed blocks. The Gram must match the materialized join, and keep its
// bits from the serial cross phase (GOMAXPROCS 1) to the concurrent one
// (GOMAXPROCS 4).
func TestJoinTreeChains(t *testing.T) {
	r := rand.New(rand.NewSource(235))
	shape := []struct{ rows, cols, parent int }{
		{20000, 4, -1}, {30, 2, 3}, {6, 3, 1}, {40, 2, 0}, {5, 2, 1},
	}
	nodes := make([]Node, len(shape))
	var edges []Edge
	for v, sh := range shape {
		x := la.NewDense(sh.rows, sh.cols)
		for i := range x.RawData() {
			x.RawData()[i] = r.NormFloat64()
		}
		nodes[v] = Node{X: x}
		if sh.parent >= 0 {
			fk := make([]int, shape[sh.parent].rows)
			for i := range fk {
				fk[i] = r.Intn(sh.rows)
			}
			edges = append(edges, Edge{Parent: sh.parent, Child: v, FK: fk})
		}
	}
	tr, err := NewJoinTree(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	resumes := map[int]int{} // extFrom → members resuming there, over every chain
	transposed := 0
	for _, p := range tr.cross {
		if p.kind != crossCount {
			resumes[p.extFrom]++
		}
		if p.kind == crossAncestor && p.src == p.v {
			transposed++
		}
	}
	if resumes[2] == 0 || transposed == 0 || tr.crossCost < gramCrossParCutoff {
		t.Fatalf("want a continuing member, a transposed block and a concurrent cross phase, got resumes %v, %d transposed, cost %.0f",
			resumes, transposed, tr.crossCost)
	}
	want := tr.Materialize()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	g1 := tr.Gram()
	if !g1.Equal(la.Gram(want), 1e-9) {
		t.Fatal("chained Gram != materialized Gram")
	}
	runtime.GOMAXPROCS(4)
	for i, v := range tr.Gram().RawData() {
		if math.Float64bits(v) != math.Float64bits(g1.RawData()[i]) {
			t.Fatalf("Gram[%d] differs between GOMAXPROCS 1 and 4", i)
		}
	}
}

// Degenerate trees: a featureless (empty) dimension contributes nothing, and
// an fk pointing every fact row at one dimension row still matches the
// materialized join.
func TestJoinTreeDegenerate(t *testing.T) {
	fact := la.NewDense(6, 2)
	dim := la.NewDense(4, 3)
	r := rand.New(rand.NewSource(230))
	for _, m := range []*la.Dense{fact, dim} {
		for i := 0; i < m.Rows(); i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] = r.NormFloat64()
			}
		}
	}
	constFK := []int{2, 2, 2, 2, 2, 2} // every fact row joins dim row 2
	tr, err := NewJoinTree(
		[]Node{{X: fact}, {X: dim}, {Rows: 9}},
		[]Edge{
			{Parent: 0, Child: 1, FK: constFK},
			{Parent: 0, Child: 2, FK: []int{0, 8, 0, 8, 0, 8}},
		})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cols() != 5 {
		t.Fatalf("key-only relation changed width: %d", tr.Cols())
	}
	m := tr.Materialize()
	w := randVec(r, 5)
	if d := maxAbsDiff(tr.MatVec(w), la.MatVec(m, w)); d > 1e-10 {
		t.Fatalf("degenerate MatVec diff %g", d)
	}
	x := randVec(r, 6)
	if d := maxAbsDiff(tr.VecMat(x), la.VecMat(x, m)); d > 1e-10 {
		t.Fatalf("degenerate VecMat diff %g", d)
	}
	if !tr.Gram().Equal(la.Gram(m), 1e-9) {
		t.Fatal("degenerate Gram != materialized")
	}
}

// The steady-state kernels must not allocate: MatVecInto/VecMatInto (the GD
// step) and GramInto (the direct solver) all run on pooled scratch. At 5000
// fact rows every edge pass and syrk stays on its serial path while the Gram's
// cross phase clears gramCrossParCutoff, so GOMAXPROCS 1 runs the cross tasks
// serially and GOMAXPROCS 2 dispatches them through the pool.
func TestJoinTreeZeroAllocSteadyState(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	s := testSnowflake(t, 240, 5000)
	tr := treeFromSnowflake(t, s)
	if tr.crossCost < gramCrossParCutoff {
		t.Fatalf("cross phase predicts %.0f flops, under the %d cutoff: GOMAXPROCS 2 would not dispatch it", tr.crossCost, gramCrossParCutoff)
	}
	r := rand.New(rand.NewSource(241))
	w := randVec(r, tr.Cols())
	x := randVec(r, tr.Rows())
	mv := make([]float64, tr.Rows())
	vm := make([]float64, tr.Cols())
	g := la.NewDense(tr.Cols(), tr.Cols())
	for _, p := range []int{1, 2} {
		runtime.GOMAXPROCS(p)
		tr.MatVecInto(mv, w)
		tr.VecMatInto(vm, x)
		tr.GramInto(g)
		if a := testing.AllocsPerRun(50, func() { tr.MatVecInto(mv, w) }); a != 0 {
			t.Errorf("GOMAXPROCS=%d: MatVecInto allocates %v per run, want 0", p, a)
		}
		if a := testing.AllocsPerRun(50, func() { tr.VecMatInto(vm, x) }); a != 0 {
			t.Errorf("GOMAXPROCS=%d: VecMatInto allocates %v per run, want 0", p, a)
		}
		if a := testing.AllocsPerRun(20, func() { tr.GramInto(g) }); a != 0 {
			t.Errorf("GOMAXPROCS=%d: GramInto allocates %v per run, want 0", p, a)
		}
	}
}

// TestJoinTreeReductionsBitReproducible: at this size the fact table's
// weighted syrk, its VecMat and the scatterAdd group-sums into the first-level
// relations all run as multi-chunk pool.Reduce grids, and the Gram's cross
// tasks (two depth-2 branches, one through a key-only link) run concurrently,
// so GramInto and XtYInto return the same bits on every repeat at GOMAXPROCS
// 1, 2 and 4.
func TestJoinTreeReductionsBitReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(242))
	s, err := workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  70000,
		FactFeats: 4,
		Nodes: []workload.SnowNode{
			{Rows: 2000, Feats: 3, Parent: -1}, // customer
			{Rows: 40, Feats: 4, Parent: 0},    // region ← customer
			{Rows: 300, Feats: 0, Parent: -1},  // store (key-only link)
			{Rows: 1500, Feats: 3, Parent: 2},  // product ← store
			{Rows: 30, Feats: 2, Parent: 3},    // category ← product
		},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := treeFromSnowflake(t, s)
	if tr.crossCost < gramCrossParCutoff || len(tr.tasks) < 2 {
		t.Fatalf("%d cross tasks predicting %.0f flops: the concurrent path would not run", len(tr.tasks), tr.crossCost)
	}
	run := func() (gram, xty []float64) {
		return tr.Gram().RawData(), tr.XtY(s.Y)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	wantGram, wantXtY := run()
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		for rep := 0; rep < 20; rep++ {
			gram, xty := run()
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"GramInto", gram, wantGram}, {"XtYInto", xty, wantXtY}} {
				for i := range c.got {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("%s at GOMAXPROCS=%d rep %d: [%d] = %x, first run %x",
							c.name, p, rep, i, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
					}
				}
			}
		}
	}
}

// randSnowflake builds a small random acyclic schema for property and fuzz
// testing: random depth, random branching, key-only relations allowed.
func randSnowflake(r *rand.Rand) (*workload.Snowflake, error) {
	k := 1 + r.Intn(5)
	nodes := make([]workload.SnowNode, k)
	for i := range nodes {
		nodes[i] = workload.SnowNode{
			Rows:   1 + r.Intn(12),
			Feats:  r.Intn(4),
			Parent: r.Intn(i+1) - 1,
		}
	}
	return workload.GenerateSnowflake(r, workload.SnowflakeConfig{
		FactRows:  5 + r.Intn(60),
		FactFeats: 1 + r.Intn(3),
		Nodes:     nodes,
		Task:      workload.RegressionTask,
		Signal:    1,
	})
}

// checkTreeEquivalence builds the tree for s and verifies every kernel
// against the materialized join; returns a description of the first
// mismatch, or "".
func checkTreeEquivalence(s *workload.Snowflake, r *rand.Rand) string {
	tr, err := joinTreeFromSnowflake(s)
	if err != nil {
		return err.Error()
	}
	m := s.Materialize()
	w := randVec(r, tr.Cols())
	if d := maxAbsDiff(tr.MatVec(w), la.MatVec(m, w)); d > 1e-8 {
		return "MatVec mismatch"
	}
	x := randVec(r, tr.Rows())
	if d := maxAbsDiff(tr.VecMat(x), la.VecMat(x, m)); d > 1e-8 {
		return "VecMat mismatch"
	}
	if !tr.Gram().Equal(la.Gram(m), 1e-7) {
		return "Gram mismatch"
	}
	return ""
}

// Property: on random acyclic trees, every kernel agrees with the
// materialized reference at GOMAXPROCS=1 and GOMAXPROCS=N. These trees are
// too small for any kernel to leave its single-chunk path;
// TestJoinTreeReductionsBitReproducible covers the multi-chunk grids.
func TestJoinTreeEquivalenceProperty(t *testing.T) {
	procs := []int{1, runtime.NumCPU()}
	if procs[1] < 4 {
		procs[1] = 4
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			s, err := randSnowflake(r)
			if err != nil {
				return true // config rejected (e.g. all-featureless): not this property
			}
			if msg := checkTreeEquivalence(s, r); msg != "" {
				t.Logf("procs=%d seed=%d: %s", p, seed, msg)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("procs=%d: %v", p, err)
		}
	}
}

// GD over a snowflake JoinTree must trace the same trajectory as GD over the
// materialized join — the tree engine is a drop-in opt.BulkData source.
func TestGradientDescentOverJoinTree(t *testing.T) {
	s := testSnowflake(t, 250, 350)
	tr := treeFromSnowflake(t, s)
	r := rand.New(rand.NewSource(251))
	y := make([]float64, tr.Rows())
	for i := range y {
		if r.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	cfg := opt.GDConfig{Step: 0.1, MaxIter: 25, Backtracking: true}
	factRes, err := opt.GradientDescent(tr, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	matRes, err := opt.GradientDescent(opt.DenseData{M: s.Materialize()}, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(factRes.W, matRes.W); d > 1e-8 {
		t.Fatalf("GD trajectories diverge, max diff %g", d)
	}
}

// The corrected cost model: a high-tuple-ratio narrow-fact star must predict
// a strong factorized win, while a wide fact over a same-sized dimension —
// where the group-sums move d_S-wide rows per fact row — must not promise
// one (the shape the old flat 2·n gather estimate got wrong).
func TestCostModelShapes(t *testing.T) {
	wide, err := workload.GenerateSnowflake(rand.New(rand.NewSource(260)), workload.SnowflakeConfig{
		FactRows: 4000, FactFeats: 96,
		Nodes:  []workload.SnowNode{{Rows: 4000, Feats: 4, Parent: -1}},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trWide, err := joinTreeFromSnowflake(wide)
	if err != nil {
		t.Fatal(err)
	}
	if sp := trWide.Speedup(); sp > 1.1 {
		t.Errorf("wide fact, tuple ratio 1: predicted speedup %.2f, want ≈1 or below", sp)
	}
	gramRatio := trWide.FlopsPerGramMaterialized() / trWide.FlopsPerGram()
	if gramRatio > 1.3 {
		t.Errorf("wide fact: Gram model promises %.2fx, want no material win", gramRatio)
	}

	narrowS, err := workload.GenerateSnowflake(rand.New(rand.NewSource(261)), workload.SnowflakeConfig{
		FactRows: 20000, FactFeats: 2,
		Nodes:  []workload.SnowNode{{Rows: 100, Feats: 30, Parent: -1}},
		Task:   workload.RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := joinTreeFromSnowflake(narrowS)
	if err != nil {
		t.Fatal(err)
	}
	if sp := narrow.Speedup(); sp < 3 {
		t.Errorf("tuple ratio 200, wide dimension: predicted speedup %.2f, want a clear win", sp)
	}
	if trWide.ResidentBytes() <= 0 || narrow.ResidentBytes() <= 0 {
		t.Error("ResidentBytes must be positive")
	}
}
