package dml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmml/internal/la"
)

// genExpr builds a random well-shaped expression over the environment's
// square matrices (side s) and scalars, returning the AST. Depth bounds
// recursion.
func genExpr(r *rand.Rand, depth int) Node {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return &Var{Name: "A"}
		case 1:
			return &Var{Name: "B"}
		default:
			return &NumLit{Val: math.Round(r.Float64()*8-4) / 2}
		}
	}
	switch r.Intn(10) {
	case 0:
		return &BinOp{Op: "%*%", Left: genMatrixExpr(r, depth-1), Right: genMatrixExpr(r, depth-1)}
	case 1:
		return &Call{Fn: "t", Args: []Node{genMatrixExpr(r, depth-1)}}
	case 2:
		return &Call{Fn: "sum", Args: []Node{genExpr(r, depth-1)}}
	case 3:
		return &BinOp{Op: "^", Left: genExpr(r, depth-1), Right: &NumLit{Val: 2}}
	case 4:
		return &Unary{X: genExpr(r, depth-1)}
	case 5:
		return &BinOp{Op: "*", Left: &NumLit{Val: float64(r.Intn(3))}, Right: genExpr(r, depth-1)}
	case 6:
		return &BinOp{Op: "+", Left: genExpr(r, depth-1), Right: &NumLit{Val: 0}}
	case 7:
		e := genMatrixExpr(r, depth-1)
		return &BinOp{Op: "+", Left: e, Right: genMatrixExpr(r, depth-1)}
	case 8:
		return &Call{Fn: "trace", Args: []Node{
			&BinOp{Op: "%*%", Left: genMatrixExpr(r, depth-1), Right: genMatrixExpr(r, depth-1)},
		}}
	default:
		return &BinOp{Op: "-", Left: genExpr(r, depth-1), Right: genExpr(r, depth-1)}
	}
}

// genMatrixExpr produces an expression guaranteed to evaluate to an s×s
// matrix (everything is square and same-size, so shapes always line up).
func genMatrixExpr(r *rand.Rand, depth int) Node {
	if depth == 0 {
		if r.Intn(2) == 0 {
			return &Var{Name: "A"}
		}
		return &Var{Name: "B"}
	}
	switch r.Intn(5) {
	case 0:
		return &BinOp{Op: "%*%", Left: genMatrixExpr(r, depth-1), Right: genMatrixExpr(r, depth-1)}
	case 1:
		return &Call{Fn: "t", Args: []Node{genMatrixExpr(r, depth-1)}}
	case 2:
		return &BinOp{Op: "+", Left: genMatrixExpr(r, depth-1), Right: genMatrixExpr(r, depth-1)}
	case 3:
		return &BinOp{Op: "*", Left: &NumLit{Val: 0.5}, Right: genMatrixExpr(r, depth-1)}
	default:
		return &BinOp{Op: "^", Left: genMatrixExpr(r, depth-1), Right: &NumLit{Val: 2}}
	}
}

// valueClose compares two Values within a relative tolerance.
func valueClose(a, b Value, tol float64) bool {
	if a.IsScalar != b.IsScalar {
		return false
	}
	if a.IsScalar {
		if math.IsNaN(a.S) && math.IsNaN(b.S) {
			return true
		}
		return math.Abs(a.S-b.S) <= tol*(1+math.Abs(a.S))
	}
	ar, ac := a.M.Dims()
	br, bc := b.M.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		ra, rb := a.M.RowView(i), b.M.RowView(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol*(1+math.Abs(ra[j])) {
				return false
			}
		}
	}
	return true
}

// Property: for random well-shaped expressions, the optimizer preserves
// semantics exactly (up to floating-point reassociation tolerance).
func TestOptimizerPreservesSemanticsFuzz(t *testing.T) {
	const side = 6
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := la.NewDense(side, side)
		b := la.NewDense(side, side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				a.Set(i, j, r.NormFloat64())
				b.Set(i, j, r.NormFloat64())
			}
		}
		expr := genExpr(r, 3+r.Intn(3))
		prog := &Program{Stmts: []Stmt{{Expr: expr}}}

		env1 := Env{"A": Matrix(a.Clone()), "B": Matrix(b.Clone())}
		naive, _, errN := prog.Run(env1)

		shapes := map[string]Shape{"A": matShape(side, side), "B": matShape(side, side)}
		opt := prog.Optimize(shapes)
		env2 := Env{"A": Matrix(a.Clone()), "B": Matrix(b.Clone())}
		fast, _, errO := opt.Run(env2)

		// Both fail or both succeed with close values.
		if (errN == nil) != (errO == nil) {
			t.Logf("seed %d expr %s: naive err %v, optimized err %v", seed, expr, errN, errO)
			return false
		}
		if errN != nil {
			return true
		}
		if !valueClose(naive, fast, 1e-8) {
			t.Logf("seed %d expr %s rewrote to %s: %v vs %v", seed, expr, opt, naive, fast)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the static analyzer is sound — on any program the evaluator
// accepts, it never panics and never reports an error-severity diagnostic
// (warnings are fine). Checked on both the naive and optimized forms, so the
// analyzer also understands the rewriter's internal fused operators.
func TestAnalyzerSoundnessFuzz(t *testing.T) {
	const side = 6
	shapes := map[string]Shape{"A": matShape(side, side), "B": matShape(side, side)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := la.NewDense(side, side)
		b := la.NewDense(side, side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				a.Set(i, j, r.NormFloat64())
				b.Set(i, j, r.NormFloat64())
			}
		}
		expr := genExpr(r, 3+r.Intn(3))
		prog := &Program{Stmts: []Stmt{{Expr: expr}}}

		// Evaluate without the analyzer pre-pass to get ground truth.
		env := Env{"A": Matrix(a), "B": Matrix(b)}
		_, evalErr := (&Program{}).runStmts(env, &EvalStats{}, prog.Stmts)

		for _, p := range []*Program{prog, prog.Optimize(shapes)} {
			an := p.Analyze(shapes)
			if evalErr == nil && an.HasErrors() {
				t.Logf("seed %d: evaluator accepts %s but analyzer reports:\n%s",
					seed, p, an.Format())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Optimize is idempotent — a second pass changes nothing.
func TestOptimizerIdempotentFuzz(t *testing.T) {
	const side = 5
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		expr := genExpr(r, 3)
		prog := &Program{Stmts: []Stmt{{Expr: expr}}}
		shapes := map[string]Shape{"A": matShape(side, side), "B": matShape(side, side)}
		once := prog.Optimize(shapes)
		twice := once.Optimize(shapes)
		return once.String() == twice.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: String → Parse round trips for generated expressions.
func TestRenderParseRoundTripFuzz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		expr := genExpr(r, 4)
		prog := &Program{Stmts: []Stmt{{Expr: expr}}}
		p2, err := Parse(prog.String())
		if err != nil {
			// Internal fused ops never appear in unoptimized trees, so any
			// parse failure is a real renderer bug.
			t.Logf("seed %d: %s: %v", seed, prog, err)
			return false
		}
		// One reparse may normalize (e.g. a negative literal becomes unary
		// minus); after that the rendering must be a fixed point.
		p3, err := Parse(p2.String())
		if err != nil {
			t.Logf("seed %d: reparse of %s: %v", seed, p2, err)
			return false
		}
		return p3.String() == p2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
