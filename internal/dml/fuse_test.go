package dml

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"dmml/internal/la"
)

// withProcs runs fn at GOMAXPROCS(n), restoring the old value.
func withProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

func fuseTestShapes(rows, cols int) map[string]Shape {
	return map[string]Shape{
		"A": matShape(rows, cols),
		"B": matShape(rows, cols),
		"v": matShape(cols, 1),
		"s": scalarShape(),
	}
}

func fuseTestEnv(r *rand.Rand, rows, cols int) Env {
	fill := func(m *la.Dense) *la.Dense {
		m.Apply(func(float64) float64 { return r.NormFloat64() })
		return m
	}
	return Env{
		"A": Matrix(fill(la.NewDense(rows, cols))),
		"B": Matrix(fill(la.NewDense(rows, cols))),
		"v": Matrix(fill(la.NewDense(cols, 1))),
		"s": Scalar(r.NormFloat64()),
	}
}

func cloneEnv(env Env) Env {
	out := make(Env, len(env))
	for k, v := range env {
		if v.IsScalar {
			out[k] = v
		} else {
			out[k] = Matrix(v.M.Clone())
		}
	}
	return out
}

// genCellExpr builds a random elementwise expression over A, B (rows×cols)
// and scalars, restricted to operators that stay finite-or-NaN-free on
// normal data so fused and unfused results compare under a relative
// tolerance.
func genCellExpr(r *rand.Rand, depth int) Node {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return &Var{Name: "A"}
		case 1:
			return &Var{Name: "B"}
		case 2:
			return &Var{Name: "s"}
		default:
			return &NumLit{Val: float64(r.Intn(7)-3) / 2}
		}
	}
	switch r.Intn(9) {
	case 0:
		return &BinOp{Op: "+", Left: genCellExpr(r, depth-1), Right: genCellExpr(r, depth-1)}
	case 1:
		return &BinOp{Op: "-", Left: genCellExpr(r, depth-1), Right: genCellExpr(r, depth-1)}
	case 2:
		return &BinOp{Op: "*", Left: genCellExpr(r, depth-1), Right: genCellExpr(r, depth-1)}
	case 3:
		return &BinOp{Op: "/", Left: genCellExpr(r, depth-1), Right: &NumLit{Val: float64(r.Intn(3)) + 1.5}}
	case 4:
		return &BinOp{Op: "^", Left: genCellExpr(r, depth-1), Right: &NumLit{Val: 2}}
	case 5:
		return &Unary{X: genCellExpr(r, depth-1)}
	case 6:
		return &Call{Fn: "abs", Args: []Node{genCellExpr(r, depth-1)}}
	case 7:
		return &Call{Fn: "sigmoid", Args: []Node{genCellExpr(r, depth-1)}}
	default:
		// A shared subtree: exercises the multi-consumer input path.
		shared := genCellExpr(r, depth-1)
		return &BinOp{Op: "+", Left: shared, Right: &BinOp{Op: "*", Left: shared, Right: &NumLit{Val: 0.5}}}
	}
}

// genFusedProgramExpr wraps a random elementwise region in each of the
// aggregate consumers the RowAgg template supports, or leaves it bare (Cell).
func genFusedProgramExpr(r *rand.Rand, depth int) Node {
	region := genCellExpr(r, depth)
	switch r.Intn(6) {
	case 0:
		return &Call{Fn: "sum", Args: []Node{region}}
	case 1:
		return &Call{Fn: "rowSums", Args: []Node{region}}
	case 2:
		return &Call{Fn: "colSums", Args: []Node{region}}
	case 3:
		return &BinOp{Op: "%*%", Left: region, Right: &Var{Name: "v"}}
	case 4:
		return &Call{Fn: "sum", Args: []Node{&BinOp{Op: "^", Left: region, Right: &NumLit{Val: 2}}}}
	default:
		return region
	}
}

// Property: fused and unfused plans agree (within float reassociation
// tolerance) on random elementwise/aggregate programs, at GOMAXPROCS 1 and N.
func TestFusedUnfusedEquivalenceQuick(t *testing.T) {
	const rows, cols = 17, 9
	shapes := fuseTestShapes(rows, cols)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		expr := genFusedProgramExpr(r, 2+r.Intn(3))
		prog := &Program{Stmts: []Stmt{{Name: "out", Expr: expr}}}
		env := fuseTestEnv(r, rows, cols)

		unfused := prog.OptimizeUnfused(shapes)
		want, _, errU := unfused.Run(cloneEnv(env))

		fused := prog.Optimize(shapes)
		ok := true
		for _, procs := range []int{1, runtime.NumCPU()} {
			withProcs(procs, func() {
				got, _, errF := fused.Run(cloneEnv(env))
				if (errU == nil) != (errF == nil) {
					t.Logf("seed %d procs %d expr %s: unfused err %v, fused err %v", seed, procs, expr, errU, errF)
					ok = false
					return
				}
				if errU == nil && !valueClose(want, got, 1e-9) {
					t.Logf("seed %d procs %d expr %s: unfused %v fused %v", seed, procs, expr, want, got)
					ok = false
				}
			})
			if !ok {
				break
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The same equivalence on a matrix large enough to cross the pool's gate, so
// the pool-parallel fused drivers (not just the serial fast path) are
// exercised through the evaluator.
func TestFusedEquivalenceParallelRegime(t *testing.T) {
	const rows, cols = 700, 400 // 280k cells ≥ the pool's gate (2¹⁷ scalar ops)
	r := rand.New(rand.NewSource(7))
	shapes := fuseTestShapes(rows, cols)
	env := fuseTestEnv(r, rows, cols)
	prog := mustParse(t, `C = sigmoid(A * 2 + B) * A - B / 3
m = sum((A - B)^2)
g = (A * A + B) %*% v
r = rowSums(abs(A) + abs(B))`)

	want, _, err := prog.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	fused := prog.Optimize(shapes)
	if got := fused.FusedRegionCount(); got != 4 {
		t.Fatalf("FusedRegionCount = %d, want 4", got)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		withProcs(procs, func() {
			fenv := cloneEnv(env)
			got, stats, err := fused.Run(fenv)
			if err != nil {
				t.Fatalf("procs %d: %v", procs, err)
			}
			if !valueClose(want, got, 1e-9) {
				t.Fatalf("procs %d: fused result diverges", procs)
			}
			if stats.FusedRegions != 4 {
				t.Fatalf("procs %d: FusedRegions = %d, want 4", procs, stats.FusedRegions)
			}
		})
	}
}

// Region formation rules: what fuses, what stays, and how shared
// intermediates become inputs.
func TestFuseRegionFormation(t *testing.T) {
	shapes := map[string]Shape{
		"X": matShape(30, 6), "Y": matShape(30, 6),
		"w": matShape(6, 1), "y": matShape(30, 1),
	}
	cases := []struct {
		name    string
		src     string
		regions int
	}{
		{"cell chain", "Z = sigmoid(X * 2 + 1) * X", 1},
		{"single op unfused", "Z = X + Y", 0},
		{"bare aggregate unfused", "m = sum(X)", 0},
		{"rowagg over region", "m = sum(X * Y)", 1},
		{"sumsq over residual", "m = sum((X %*% w - y)^2)", 1},
		{"rowSums region", "r = rowSums(X * X + Y)", 1},
		{"colSums region", "c = colSums(X / 2 - Y)", 1},
		{"matvec over region", "g = (X + Y * 0.5) %*% w", 1},
		{"gram pattern untouched", "G = t(X) %*% X", 0},
		{"matmul not elementwise", "P = X %*% t(Y)", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := mustParse(t, tc.src).Optimize(shapes)
			if got := opt.FusedRegionCount(); got != tc.regions {
				t.Fatalf("%s: FusedRegionCount = %d, want %d (program: %s)", tc.src, got, tc.regions, opt)
			}
		})
	}

	t.Run("shape-unknown stays unfused", func(t *testing.T) {
		opt := mustParse(t, "Z = sigmoid(X * 2 + 1) * X").Optimize(nil)
		if got := opt.FusedRegionCount(); got != 0 {
			t.Fatalf("FusedRegionCount = %d, want 0 without shape information", got)
		}
	})

	t.Run("multi-consumer subtree becomes input", func(t *testing.T) {
		opt := mustParse(t, "Z = (X + Y) * (X + Y) + X").Optimize(shapes)
		fused, ok := opt.Stmts[0].Expr.(*Fused)
		if !ok {
			t.Fatalf("statement did not fuse: %s", opt)
		}
		if len(fused.Inputs) != 2 {
			t.Fatalf("inputs = %d, want 2 (shared (X + Y) deduped, X)", len(fused.Inputs))
		}
		if fused.Inputs[0].String() != "(X + Y)" {
			t.Fatalf("input[0] = %s, want the shared (X + Y) kept as an unfused input", fused.Inputs[0])
		}
		if fused.Prog.ArithOps() != 2 {
			t.Fatalf("arith ops = %d, want 2 (mul + add; the shared sum is NOT re-inlined)", fused.Prog.ArithOps())
		}
	})

	t.Run("fused regions keep the Gram pattern", func(t *testing.T) {
		src := "G = t(X * 2 + Y) %*% (X * 2 + Y)"
		opt := mustParse(t, src).Optimize(shapes)
		if got := opt.FusedRegionCount(); got != 2 {
			t.Fatalf("FusedRegionCount = %d, want 2", got)
		}
		r := rand.New(rand.NewSource(3))
		env := Env{
			"X": Matrix(randDense(r, 30, 6)), "Y": Matrix(randDense(r, 30, 6)),
		}
		want, _, err := mustParse(t, src).OptimizeUnfused(shapes).Run(cloneEnv(env))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := opt.Run(cloneEnv(env))
		if err != nil {
			t.Fatal(err)
		}
		if !valueClose(want, got, 1e-9) {
			t.Fatalf("gram-over-fused-region diverges: %v vs %v", want, got)
		}
	})
}

func randDense(r *rand.Rand, rows, cols int) *la.Dense {
	m := la.NewDense(rows, cols)
	m.Apply(func(float64) float64 { return r.NormFloat64() })
	return m
}

// Fusion must report its savings: the fused plan materializes only final
// outputs, and CellsSaved accounts for the skipped intermediates.
func TestFusedCellsAllocatedSavings(t *testing.T) {
	const rows, cols = 64, 32
	src := `P = sigmoid(X * 2 + 1) * X - X / 3
m = sum((X - P)^2)
g = (X * X + P) %*% w`
	shapes := map[string]Shape{"X": matShape(rows, cols), "w": matShape(cols, 1)}
	r := rand.New(rand.NewSource(11))
	env := Env{"X": Matrix(randDense(r, rows, cols)), "w": Matrix(randDense(r, cols, 1))}
	prog := mustParse(t, src)

	_, unfused, err := prog.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	_, fused, err := prog.Optimize(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if fused.FusedRegions != 3 {
		t.Fatalf("FusedRegions = %d, want 3", fused.FusedRegions)
	}
	if fused.CellsSaved == 0 {
		t.Fatal("CellsSaved = 0, want fused savings reported")
	}
	if unfused.CellsAllocated < 3*fused.CellsAllocated {
		t.Fatalf("CellsAllocated fused %d vs unfused %d: want ≥3x reduction",
			fused.CellsAllocated, unfused.CellsAllocated)
	}
	if got := fused.CellsAllocated + fused.CellsSaved; got != unfused.CellsAllocated {
		t.Fatalf("fused allocated+saved = %d, want the unfused plan's %d",
			got, unfused.CellsAllocated)
	}

	// The same identity with both Row forms in the plan: a statement pair
	// (p, then h) and a single statement (k).
	rowProg := mustParse(t, `p = sigmoid(X %*% w)
h = t(X) %*% (p * 2 - 1)
k = t(X) %*% (sigmoid(X %*% w) - p)`)
	_, unfused, err = rowProg.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	_, fused, err = rowProg.Optimize(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if fused.FusedRegions != 2 {
		t.Fatalf("Row plan: FusedRegions = %d, want 2", fused.FusedRegions)
	}
	if got := fused.CellsAllocated + fused.CellsSaved; got != unfused.CellsAllocated {
		t.Fatalf("Row plan: fused allocated+saved = %d, want the unfused plan's %d",
			got, unfused.CellsAllocated)
	}
}

// Re-optimizing a fused program must be a no-op: same regions, same results.
func TestFuseIdempotent(t *testing.T) {
	shapes := map[string]Shape{"X": matShape(12, 5), "w": matShape(5, 1)}
	src := `Z = sigmoid(X * 2 + 1) * X
g = (X + X * 0.5) %*% w
m = sum(Z * Z)`
	once := mustParse(t, src).Optimize(shapes)
	twice := once.Optimize(shapes)
	if once.String() != twice.String() {
		t.Fatalf("re-optimize changed rendering:\n%s\nvs\n%s", once, twice)
	}
	if a, b := once.FusedRegionCount(), twice.FusedRegionCount(); a != b {
		t.Fatalf("re-optimize changed region count: %d vs %d", a, b)
	}
	r := rand.New(rand.NewSource(5))
	env := Env{"X": Matrix(randDense(r, 12, 5)), "w": Matrix(randDense(r, 5, 1))}
	v1, _, err := once.Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := twice.Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if !valueClose(v1, v2, 0) {
		t.Fatalf("re-optimized program diverges: %v vs %v", v1, v2)
	}
}

// Fused programs run inside loops: LICM temporaries and loop-carried
// variables interact with fusion, and the fused GD loop must match the
// unfused one.
func TestFusedGDLoopEquivalence(t *testing.T) {
	const rows, cols = 50, 8
	src := `for (i in 1:25) {
  w = w - 0.01 * (t(X) %*% (X %*% w - y))
}
mse = sum((X %*% w - y)^2) / nrow(X)`
	shapes := map[string]Shape{
		"X": matShape(rows, cols), "y": matShape(rows, 1), "w": matShape(cols, 1),
	}
	r := rand.New(rand.NewSource(9))
	env := Env{
		"X": Matrix(randDense(r, rows, cols)),
		"y": Matrix(randDense(r, rows, 1)),
		"w": Matrix(la.NewDense(cols, 1)),
	}
	prog := mustParse(t, src)
	want, _, err := prog.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	fused := prog.Optimize(shapes)
	if fused.FusedRegionCount() == 0 {
		t.Fatalf("GD loop produced no fused regions: %s", fused)
	}
	got, stats, err := fused.Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if !valueClose(want, got, 1e-8) {
		t.Fatalf("fused GD diverges: %v vs %v", want, got)
	}
	if stats.FusedRegions < 25 {
		t.Fatalf("FusedRegions = %d, want one per iteration at least", stats.FusedRegions)
	}
}

// Native fuzz target: the fusion pass must preserve semantics versus the
// unfused plan and stay sound under the analyzer for arbitrary generated
// programs (CI runs this briefly with -fuzz=Fuzz on every pipeline).
//
// Negative seeds generate Row programs instead (see genRowProgram): -seed
// mod 3 picks the single-statement form, the statement pair, or the pair
// with an assignment between its statements that must keep it apart; those
// must match the unfused plan bit for bit, environment included.
func FuzzFusionSemantics(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999, 2, 11, 64, 4096, 123456} {
		f.Add(seed)
	}
	for _, seed := range []int64{-3, -1, -2, -6, -4, -5, -300, -301, -302} {
		f.Add(seed)
	}
	const rows, cols = 9, 5
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		if seed < 0 {
			checkRowProgram(t, r, int(-(seed % 3)), rows, cols)
			return
		}
		var expr Node
		var sh map[string]Shape
		var env Env
		if r.Intn(2) == 0 {
			expr = genFusedProgramExpr(r, 1+r.Intn(4))
			sh = fuseTestShapes(rows, cols)
			env = fuseTestEnv(r, rows, cols)
		} else {
			// The general generator: square matrices, products, transposes.
			const side = 5
			expr = genExpr(r, 2+r.Intn(3))
			sh = map[string]Shape{"A": matShape(side, side), "B": matShape(side, side)}
			env = Env{"A": Matrix(randDense(r, side, side)), "B": Matrix(randDense(r, side, side))}
		}
		prog := &Program{Stmts: []Stmt{{Name: "out", Expr: expr}}}

		unfused := prog.OptimizeUnfused(sh)
		want, _, errU := unfused.Run(cloneEnv(env))

		fused := prog.Optimize(sh)
		got, _, errF := fused.Run(cloneEnv(env))
		if (errU == nil) != (errF == nil) {
			t.Fatalf("expr %s: unfused err %v, fused err %v", expr, errU, errF)
		}
		if errU == nil && !valueClose(want, got, 1e-8) {
			t.Fatalf("expr %s: unfused %v, fused %v", expr, want, got)
		}
		// The analyzer must accept the fused program whenever evaluation does.
		if errU == nil {
			if an := fused.Analyze(sh); an.HasErrors() {
				t.Fatalf("expr %s: fused program fails analysis:\n%s", expr, an.Format())
			}
		}
	})
}

// A region with more distinct inputs than la.CompileFused accepts stays
// unfused at its root — the compile error is the only refusal there is —
// while its sub-regions still fuse, and the plan computes exactly what the
// unfused one does.
func TestFuseTooManyInputsStaysUnfused(t *testing.T) {
	const rows, cols, n = 6, 4, 32
	shapes := map[string]Shape{}
	env := Env{}
	r := rand.New(rand.NewSource(13))
	terms := make([]string, n)
	for i := range terms {
		name := fmt.Sprintf("X%d", i)
		terms[i] = name
		shapes[name] = matShape(rows, cols)
		env[name] = Matrix(randDense(r, rows, cols))
	}
	prog := mustParse(t, "Z = "+strings.Join(terms, " + "))
	fused := prog.Optimize(shapes)
	if _, ok := fused.Stmts[0].Expr.(*Fused); ok {
		t.Fatalf("%d-input region fused at its root", n)
	}
	if fused.FusedRegionCount() == 0 {
		t.Fatal("no sub-region fused")
	}
	fused.forEachFused(func(f *Fused) {
		if len(f.Inputs) > n-1 {
			t.Errorf("fused region with %d inputs", len(f.Inputs))
		}
	})
	want, _, err := prog.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fused.Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if !valueClose(want, got, 0) {
		t.Fatalf("fused plan diverges from unfused: %v vs %v", want, got)
	}
}

// The transcendental unary calls fuse too; exercised on data kept in their
// domains (log over strictly positive cells, sqrt over non-negatives).
func TestFusedTranscendentalEquivalence(t *testing.T) {
	const rows, cols = 23, 7
	src := `Z = log(exp(A) + 1) * sqrt(abs(A) + 1)
m = sum(exp(A / 4) - 1)`
	shapes := map[string]Shape{"A": matShape(rows, cols)}
	r := rand.New(rand.NewSource(21))
	env := Env{"A": Matrix(randDense(r, rows, cols))}
	prog := mustParse(t, src)
	want, _, err := prog.OptimizeUnfused(shapes).Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	fused := prog.Optimize(shapes)
	if got := fused.FusedRegionCount(); got != 2 {
		t.Fatalf("FusedRegionCount = %d, want 2", got)
	}
	got, _, err := fused.Run(cloneEnv(env))
	if err != nil {
		t.Fatal(err)
	}
	if !valueClose(want, got, 1e-9) {
		t.Fatalf("transcendental region diverges: %v vs %v", want, got)
	}
}

// genColExpr builds a random elementwise expression over the given column
// leaves, a scalar s and literals, from operators the fused and unfused
// plans round identically, so their results compare bit for bit.
func genColExpr(r *rand.Rand, depth int, cols []Node) Node {
	if depth == 0 {
		switch k := r.Intn(len(cols) + 2); {
		case k < len(cols):
			return cols[k]
		case k == len(cols):
			return &Var{Name: "s"}
		default:
			return &NumLit{Val: float64(r.Intn(7)-3) / 2}
		}
	}
	switch r.Intn(7) {
	case 0:
		return &BinOp{Op: "+", Left: genColExpr(r, depth-1, cols), Right: genColExpr(r, depth-1, cols)}
	case 1:
		return &BinOp{Op: "-", Left: genColExpr(r, depth-1, cols), Right: genColExpr(r, depth-1, cols)}
	case 2:
		return &BinOp{Op: "*", Left: genColExpr(r, depth-1, cols), Right: genColExpr(r, depth-1, cols)}
	case 3:
		return &BinOp{Op: "/", Left: genColExpr(r, depth-1, cols), Right: &NumLit{Val: float64(r.Intn(3)) + 1.5}}
	case 4:
		return &Unary{X: genColExpr(r, depth-1, cols)}
	case 5:
		return &Call{Fn: "abs", Args: []Node{genColExpr(r, depth-1, cols)}}
	default:
		return &Call{Fn: "sigmoid", Args: []Node{genColExpr(r, depth-1, cols)}}
	}
}

func randElementwiseOp(r *rand.Rand) string { return []string{"+", "-", "*"}[r.Intn(3)] }

// genRowProgram builds a Row program over A (rows×cols), v, y and s:
//
//	form 0: out = t(A) %*% g(A %*% v, y)
//	form 1: p = f(A %*% v, y); out = t(A) %*% g(p, y)
//	form 2: form 1 with y reassigned between the two statements, which g
//	        reads, so the pair must not form
func genRowProgram(r *rand.Rand, form int) *Program {
	margin := &BinOp{Op: "%*%", Left: &Var{Name: "A"}, Right: &Var{Name: "v"}}
	y, p := &Var{Name: "y"}, &Var{Name: "p"}
	tA := &Call{Fn: "t", Args: []Node{&Var{Name: "A"}}}
	if form == 0 {
		g := &BinOp{Op: randElementwiseOp(r), Left: genColExpr(r, 1+r.Intn(3), []Node{margin, y}), Right: margin}
		return &Program{Stmts: []Stmt{{Name: "out", Expr: &BinOp{Op: "%*%", Left: tA, Right: g}}}}
	}
	f := &Call{Fn: "sigmoid", Args: []Node{&BinOp{Op: randElementwiseOp(r), Left: genColExpr(r, r.Intn(3), []Node{margin, y}), Right: margin}}}
	g := &BinOp{Op: randElementwiseOp(r), Right: p,
		Left: &BinOp{Op: randElementwiseOp(r), Left: genColExpr(r, r.Intn(3), []Node{p, y}), Right: y}}
	stmts := []Stmt{{Name: "p", Expr: f}}
	if form == 2 {
		stmts = append(stmts, Stmt{Name: "y", Expr: &BinOp{Op: "*", Left: y, Right: &NumLit{Val: 2}}})
	}
	stmts = append(stmts, Stmt{Name: "out", Expr: &BinOp{Op: "%*%", Left: tA, Right: g}})
	return &Program{Stmts: stmts}
}

// checkRowProgram runs a generated Row program fused and unfused: same
// error status, and on success the same value and environment bit for bit.
// The negative form must leave the pair unformed. (The positive forms are
// not required to form: the rewriter may simplify g to a bare margin.)
func checkRowProgram(t *testing.T, r *rand.Rand, form, rows, cols int) {
	env := fuseTestEnv(r, rows, cols)
	env["y"] = Matrix(randDense(r, rows, 1))
	sh := ShapesFromEnv(env)
	prog := genRowProgram(r, form)
	fused := prog.Optimize(sh)
	if _, c := rowRegions(fused); form == 2 && c != 0 {
		t.Fatalf("pair formed across an assignment to y:\n%s", fused)
	}
	wantEnv, gotEnv := cloneEnv(env), cloneEnv(env)
	want, _, errU := prog.OptimizeUnfused(sh).Run(wantEnv)
	got, _, errF := fused.Run(gotEnv)
	if (errU == nil) != (errF == nil) {
		t.Fatalf("%s: unfused err %v, fused err %v", prog, errU, errF)
	}
	if errU != nil {
		return
	}
	if err := sameValue(got, want); err != nil {
		t.Fatalf("%s: value: %v", prog, err)
	}
	if err := sameEnv(gotEnv, wantEnv); err != nil {
		t.Fatalf("%s: env: %v", prog, err)
	}
}
