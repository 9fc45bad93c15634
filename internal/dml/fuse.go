package dml

import (
	"dmml/internal/la"
)

// Operator fusion, SPOOF-lite: after the algebraic rewrites, single-consumer
// regions of elementwise operators are collapsed into one internal Fused node
// compiled to an la micro-op program. Two templates exist:
//
//   - Cell: an elementwise/scalar expression tree over conformable matrices
//     (e.g. sigmoid(X %*% w) executed as inputs + one fused pass) runs as a
//     single pool-parallel sweep writing one scratch-backed output, instead
//     of materializing a fresh matrix per operator.
//   - RowAgg: an elementwise region feeding sum / rowSums / colSums / a
//     matrix–vector product reduces inside the same pass and materializes no
//     intermediate at all.
//
// Fusion is NOT applied to (a) multi-consumer intermediates — a subtree that
// occurs more than once in the statement stays an ordinary input so CSE still
// evaluates it exactly once — and (b) shape-unknown nodes: only subtrees the
// abstract interpreter proves to be matrices join a region, so programs
// optimized without shape information run unfused. Scalar subtrees never
// form regions; they compile to broadcast inputs (or FuseConst for literals).

// FuseKind selects the fused execution template.
type FuseKind uint8

const (
	// FuseCell executes an elementwise region as one pass over the cells.
	FuseCell FuseKind = iota
	// FuseRowAgg executes an elementwise region directly into a reduction.
	FuseRowAgg
)

// fuseAgg names the reduction of a FuseRowAgg region.
type fuseAgg uint8

const (
	aggSum fuseAgg = iota
	aggRowSums
	aggColSums
	aggMatVec
)

// Fused is an internal AST node produced by the fusion pass; the parser
// never emits it. Body keeps the original expression, and String delegates
// to it, so a fused program renders exactly like its unfused counterpart:
// every string-keyed mechanism (CSE memo, rewrite fixpoints, the Gram
// pattern match in evalMatMul, LICM hoist keys) keeps working unchanged,
// and re-optimizing a fused program is a no-op.
type Fused struct {
	Kind   FuseKind
	Agg    fuseAgg // meaningful when Kind == FuseRowAgg
	Body   Node    // original expression: shapes, free vars, rendering
	Prog   *la.FuseProgram
	Inputs []Node // region leaves, deduped by String; evaluated unfused
	Vec    Node   // aggMatVec only: the vector operand
	// MatOps counts the region's AST operators, i.e. the full-size
	// intermediates the unfused plan would materialize. It can differ from
	// Prog.ArithOps(): the square a __sumsq region appends never
	// materializes in either plan.
	MatOps int
	Pos    int
}

func (n *Fused) pos() int { return n.Pos }

// String implements fmt.Stringer by rendering the original expression.
func (n *Fused) String() string { return n.Body.String() }

// fuseStmts applies the fusion pass to a rewritten statement list, tracking
// variable shapes through assignments exactly like optimizeStmts.
func fuseStmts(stmts []Stmt, env absEnv) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, stmt := range stmts {
		switch {
		case stmt.For != nil:
			inner := env.clone()
			inner[stmt.For.Var] = binding{shape: scalarAbs(), definite: true}
			invalidateAssigned(stmt.For.Body, inner)
			out[i] = Stmt{For: &ForStmt{
				Var:  stmt.For.Var,
				From: stmt.For.From,
				To:   stmt.For.To,
				Body: fuseStmts(stmt.For.Body, inner),
			}, Pos: stmt.Pos}
			invalidateAssigned(stmt.For.Body, env)
			env[stmt.For.Var] = binding{shape: scalarAbs(), definite: true}
		case stmt.If != nil:
			out[i] = Stmt{If: &IfStmt{
				Cond: stmt.If.Cond,
				Then: fuseStmts(stmt.If.Then, env.clone()),
				Else: fuseStmts(stmt.If.Else, env.clone()),
			}, Pos: stmt.Pos}
			invalidateAssigned(stmt.If.Then, env)
			invalidateAssigned(stmt.If.Else, env)
		default:
			fz := &fuser{env: env, counts: map[string]int{}}
			countSubtrees(stmt.Expr, fz.counts)
			expr := fz.fuseExpr(stmt.Expr)
			out[i] = Stmt{Name: stmt.Name, Expr: expr, Pos: stmt.Pos}
			if stmt.Name != "" {
				env[stmt.Name] = binding{shape: inferAbs(expr, env, nil), definite: true}
			}
		}
	}
	return out
}

// countSubtrees increments counts for every subtree occurrence in the
// statement; the single-consumer rule consults it so a shared intermediate
// becomes a region input (evaluated once via CSE) rather than being inlined
// — and recomputed — in several places.
func countSubtrees(n Node, counts map[string]int) {
	counts[n.String()]++
	switch t := n.(type) {
	case *Unary:
		countSubtrees(t.X, counts)
	case *BinOp:
		countSubtrees(t.Left, counts)
		countSubtrees(t.Right, counts)
	case *Call:
		for _, a := range t.Args {
			countSubtrees(a, counts)
		}
	case *Index:
		countSubtrees(t.X, counts)
		countSpec(t.Row, counts)
		countSpec(t.Col, counts)
	}
}

func countSpec(spec *IndexSpec, counts map[string]int) {
	if spec.All {
		return
	}
	countSubtrees(spec.Lo, counts)
	if spec.Hi != nil {
		countSubtrees(spec.Hi, counts)
	}
}

// fuser holds per-statement fusion state.
type fuser struct {
	env    absEnv
	counts map[string]int
}

// fusableOp reports whether n is an elementwise operator whose result is
// definitely a matrix — the only nodes that may join a fused region.
func (fz *fuser) fusableOp(n Node) bool {
	switch t := n.(type) {
	case *Unary:
	case *BinOp:
		switch t.Op {
		case "+", "-", "*", "/", "^":
		default:
			return false
		}
	case *Call:
		switch t.Fn {
		case "exp", "log", "sqrt", "abs", "sigmoid":
		default:
			return false
		}
	default:
		return false
	}
	return inferAbs(n, fz.env, nil).IsMatrix()
}

// fuseExpr rewrites n bottom-up, replacing maximal fusable regions with
// Fused nodes. Already-fused nodes pass through untouched, which makes the
// pass idempotent.
func (fz *fuser) fuseExpr(n Node) Node {
	switch t := n.(type) {
	case *Unary:
		if f := fz.tryCell(n); f != nil {
			return f
		}
		return &Unary{X: fz.fuseExpr(t.X), Pos: t.Pos}
	case *BinOp:
		if t.Op == "%*%" {
			if f := fz.tryMatVec(t); f != nil {
				return f
			}
		} else if f := fz.tryCell(n); f != nil {
			return f
		}
		return &BinOp{Op: t.Op, Left: fz.fuseExpr(t.Left), Right: fz.fuseExpr(t.Right), Pos: t.Pos}
	case *Call:
		if f := fz.tryRowAgg(t); f != nil {
			return f
		}
		if f := fz.tryCell(n); f != nil {
			return f
		}
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = fz.fuseExpr(a)
		}
		return &Call{Fn: t.Fn, Args: args, Pos: t.Pos}
	case *Index:
		return &Index{X: fz.fuseExpr(t.X), Row: fz.fuseSpec(t.Row), Col: fz.fuseSpec(t.Col), Pos: t.Pos}
	}
	return n
}

func (fz *fuser) fuseSpec(spec *IndexSpec) *IndexSpec {
	if spec.All {
		return spec
	}
	out := &IndexSpec{Lo: fz.fuseExpr(spec.Lo)}
	if spec.Hi != nil {
		out.Hi = fz.fuseExpr(spec.Hi)
	}
	return out
}

// tryCell fuses an elementwise region rooted at n into a Cell template.
// Regions of fewer than two operators are left alone: a single elementwise
// op materializes exactly its output either way, so fusion would only add
// dispatch overhead.
func (fz *fuser) tryCell(n Node) Node {
	if !fz.fusableOp(n) {
		return nil
	}
	rb := fz.newRegion(n)
	rb.inline(n)
	if rb.failed || rb.arith < 2 {
		return nil
	}
	prog, err := la.CompileFused(rb.ops, len(rb.inputs))
	if err != nil {
		return nil
	}
	return &Fused{Kind: FuseCell, Body: n, Prog: prog, Inputs: rb.inputs, MatOps: rb.arith, Pos: n.pos()}
}

// tryRowAgg fuses sum/__sumsq/rowSums/colSums over an elementwise region,
// so the reduction consumes region cells directly and the intermediate is
// never materialized. A bare-variable argument stays unfused: the existing
// Sum/SumSq/RowSums kernels already run in one pass.
func (fz *fuser) tryRowAgg(c *Call) Node {
	var agg fuseAgg
	sumsq := false
	switch c.Fn {
	case "sum":
		agg = aggSum
	case "__sumsq":
		agg, sumsq = aggSum, true
	case "rowSums":
		agg = aggRowSums
	case "colSums":
		agg = aggColSums
	default:
		return nil
	}
	arg := c.Args[0]
	if !fz.fusableOp(arg) {
		return nil
	}
	rb := fz.newRegion(arg)
	rb.inline(arg)
	matOps := rb.arith
	if sumsq {
		rb.op(la.FuseSq)
	}
	if rb.failed || matOps < 1 {
		return nil
	}
	prog, err := la.CompileFused(rb.ops, len(rb.inputs))
	if err != nil {
		return nil
	}
	return &Fused{Kind: FuseRowAgg, Agg: agg, Body: c, Prog: prog, Inputs: rb.inputs, MatOps: matOps, Pos: c.Pos}
}

// tryMatVec fuses `region %*% v` when v is statically a column vector: each
// output element reduces one region row on the fly. The Gram and transpose
// patterns are untouched — their left operand is a t() call, which is not an
// elementwise region.
func (fz *fuser) tryMatVec(b *BinOp) Node {
	if !fz.fusableOp(b.Left) {
		return nil
	}
	rs := inferAbs(b.Right, fz.env, nil)
	if !rs.IsMatrix() || rs.Cols != 1 {
		return nil
	}
	rb := fz.newRegion(b.Left)
	rb.inline(b.Left)
	if rb.failed || rb.arith < 1 {
		return nil
	}
	prog, err := la.CompileFused(rb.ops, len(rb.inputs))
	if err != nil {
		return nil
	}
	return &Fused{
		Kind: FuseRowAgg, Agg: aggMatVec, Body: b, Prog: prog,
		Inputs: rb.inputs, Vec: fz.fuseExpr(b.Right), MatOps: rb.arith, Pos: b.Pos,
	}
}

// regionBuilder compiles one region into a postfix micro-op program plus its
// input list.
type regionBuilder struct {
	fz       *fuser
	ops      []la.FusedOp
	inputs   []Node
	inputIdx map[string]int
	arith    int
	// rootCount is the statement-wide occurrence count of the region root.
	// A child with MORE occurrences than the root is consumed outside this
	// region too, so it stays an input; a child with the same count only
	// ever appears inside copies of this region, which CSE evaluates once.
	rootCount int
	failed    bool
}

func (fz *fuser) newRegion(root Node) *regionBuilder {
	return &regionBuilder{fz: fz, inputIdx: map[string]int{}, rootCount: fz.counts[root.String()]}
}

func (rb *regionBuilder) op(code la.FuseOpCode) {
	rb.ops = append(rb.ops, la.FusedOp{Code: code})
	rb.arith++
}

// absorb compiles n into the region: literals become constants, fusable
// single-consumer operators are inlined, and everything else — leaves,
// matrix products, scalar subtrees, shared intermediates — loads as an
// input the evaluator computes normally (once, via CSE).
func (rb *regionBuilder) absorb(n Node) {
	if rb.failed {
		return
	}
	if lit, ok := n.(*NumLit); ok {
		rb.ops = append(rb.ops, la.FusedOp{Code: la.FuseConst, Val: lit.Val})
		return
	}
	if rb.fz.fusableOp(n) && rb.fz.counts[n.String()] <= rb.rootCount {
		rb.inline(n)
		return
	}
	rb.load(n)
}

// inline emits n's operator unconditionally (the region root bypasses the
// single-consumer check: fusing a shared root just means CSE caches the
// fused value).
func (rb *regionBuilder) inline(n Node) {
	switch t := n.(type) {
	case *Unary:
		rb.absorb(t.X)
		rb.op(la.FuseNeg)
	case *BinOp:
		if t.Op == "^" && isLit(t.Right, 2) {
			rb.absorb(t.Left)
			rb.op(la.FuseSq)
			return
		}
		rb.absorb(t.Left)
		rb.absorb(t.Right)
		rb.op(binFuseCode(t.Op))
	case *Call:
		rb.absorb(t.Args[0])
		rb.op(callFuseCode(t.Fn))
	default:
		rb.failed = true
	}
}

func (rb *regionBuilder) load(n Node) {
	key := n.String()
	idx, ok := rb.inputIdx[key]
	if !ok {
		idx = len(rb.inputs)
		rb.inputIdx[key] = idx
		rb.inputs = append(rb.inputs, rb.fz.fuseExpr(n))
	}
	rb.ops = append(rb.ops, la.FusedOp{Code: la.FuseLoad, Arg: idx})
}

func binFuseCode(op string) la.FuseOpCode {
	switch op {
	case "+":
		return la.FuseAdd
	case "-":
		return la.FuseSub
	case "*":
		return la.FuseMul
	case "/":
		return la.FuseDiv
	default: // "^" — fusableOp admits no other operator
		return la.FusePow
	}
}

func callFuseCode(fn string) la.FuseOpCode {
	switch fn {
	case "exp":
		return la.FuseExp
	case "log":
		return la.FuseLog
	case "sqrt":
		return la.FuseSqrt
	case "abs":
		return la.FuseAbs
	default: // "sigmoid" — fusableOp admits no other call
		return la.FuseSigmoid
	}
}
