package dml

import (
	"dmml/internal/la"
)

// Operator fusion, SPOOF-lite: after the algebraic rewrites, single-consumer
// regions of elementwise operators are collapsed into one internal Fused node
// compiled to an la micro-op program. Three templates exist:
//
//   - Cell: an elementwise/scalar expression tree over conformable matrices
//     (e.g. sigmoid(X %*% w) executed as inputs + one fused pass) runs as a
//     single pool-parallel sweep writing one scratch-backed output, instead
//     of materializing a fresh matrix per operator.
//   - RowAgg: an elementwise region feeding sum / rowSums / colSums / a
//     matrix–vector product reduces inside the same pass and materializes no
//     intermediate at all.
//   - Row: t(X) %*% g(f(X %*% u)) over an in-memory X runs as one pass over
//     X's row tiles — margins, f, g and the Xᵀ accumulation per tile — where
//     the unfused plan reads X twice and materializes every intermediate.
//     It forms within one statement (t(X) %*% (sigmoid(X %*% w) - y)) or
//     across a statement pair: v = f(X %*% u), then an occurrence of
//     t(X) %*% g(v, …) later in the same block (see tryRowPair).
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
	// FuseRow executes t(X) %*% g(f(X %*% u)) in one pass over X.
	FuseRow
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
	// Row is a FuseRow region's plan; nil on a statement pair's consumer,
	// the later occurrence that receives the product its producer computed.
	Row *rowPlan
	// Plain is what a FuseRow node runs when the template cannot: the
	// expression as fusion without the Row template compiles it.
	Plain Node
}

// rowPlan is a Row region: t(X) %*% g(f(X %*% u)). In the single-statement
// form F is empty and g reads the margins X %*% u directly; in the pair form
// the region is the statement v = f(X %*% u), which returns v and hands the
// product to Consumer.
type rowPlan struct {
	X        *Var
	U        Node
	F, G     rowStage
	Consumer *Fused
}

// rowStage is one compiled cell program of a Row region over columns of X's
// row count and scalars. Inputs[Slot] is the stage's link to the chain — the
// margins X %*% u, or f's result v — and is never evaluated.
type rowStage struct {
	Prog   *la.FuseProgram
	Inputs []Node
	Slot   int
	MatOps int
}

func (n *Fused) pos() int { return n.Pos }

// String implements fmt.Stringer by rendering the original expression.
func (n *Fused) String() string { return n.Body.String() }

// fuseStmts applies the fusion pass to a rewritten statement list, tracking
// variable shapes through assignments exactly like optimizeStmts.
func fuseStmts(stmts []Stmt, env absEnv) []Stmt {
	out := make([]Stmt, len(stmts))
	// consumers[k] holds the occurrences in statement k that a Row producer
	// earlier in this block computes, keyed by their rendering.
	consumers := map[int]map[string]*Fused{}
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
			fz := newFuser(env, stmt.Expr)
			fz.consumers = consumers[i]
			expr := fz.tryRowPair(stmts, i, consumers)
			if expr == nil {
				expr = fz.fuseExpr(stmt.Expr)
			}
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
	// consumers maps the renderings of this statement's Row consumers —
	// products a producer earlier in the block computes — to their nodes.
	consumers map[string]*Fused
}

func newFuser(env absEnv, stmt Node) *fuser {
	fz := &fuser{env: env, counts: map[string]int{}}
	countSubtrees(stmt, fz.counts)
	return fz
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
			if f := fz.tryRow(t); f != nil {
				return f
			}
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

// tryRow forms a Row region at t(X) %*% region: a statement-pair consumer
// when an earlier producer computes it, else the single-statement form
// when the region is an elementwise program over the margins X %*% u and
// columns of X's row count.
func (fz *fuser) tryRow(b *BinOp) Node {
	if c, ok := fz.consumers[b.String()]; ok {
		return c
	}
	x := transposedVar(b.Left, fz.env)
	if x == nil {
		return nil
	}
	rows := inferAbs(x, fz.env, nil).Rows
	g, ok := fz.rowStage(b.Right, rows, func(in Node) bool { return marginOf(in, fz.env, rows) == x.Name })
	if !ok {
		return nil
	}
	u := g.Inputs[g.Slot].(*BinOp).Right
	return &Fused{
		Kind: FuseRow, Body: b, Pos: b.Pos,
		Row:   &rowPlan{X: x, U: u, G: g},
		Plain: fz.plainMatMul(b),
	}
}

// plainMatMul is t(X) %*% region as fusion compiles it without the Row
// template: a transpose product over the fused region.
func (fz *fuser) plainMatMul(b *BinOp) Node {
	return &BinOp{Op: b.Op, Left: fz.fuseExpr(b.Left), Right: fz.fuseExpr(b.Right), Pos: b.Pos}
}

// tryRowPair forms the statement-pair Row region: stmts[i] is
// v = f(X %*% u), and a later plain statement k of the same block contains
// t(X) %*% g(v, …). The producer computes v and the product in one pass;
// statement k's occurrence becomes a consumer that takes the product. The
// pair forms only when that is what statement k would compute: X, v and
// every free variable of the occurrence keep their values from statement i
// to statement k, and no operand of g but the link reads v.
func (fz *fuser) tryRowPair(stmts []Stmt, i int, consumers map[int]map[string]*Fused) Node {
	v, expr := stmts[i].Name, stmts[i].Expr
	if v == "" || fz.consumers != nil {
		return nil
	}
	vs := inferAbs(expr, fz.env, nil)
	var x string
	f, ok := fz.rowStage(expr, vs.Rows, func(in Node) bool {
		x = marginOf(in, fz.env, vs.Rows)
		return x != ""
	})
	if !ok || x == v {
		return nil
	}
	after := fz.env.clone()
	after[v] = binding{shape: vs, definite: true}
	assigned := map[string]bool{}
	for k := i + 1; k < len(stmts); k++ {
		if stmts[k].Expr != nil && consumers[k] == nil {
			fk := newFuser(after, stmts[k].Expr)
			if occ, g := fk.findConsumer(stmts[k].Expr, x, v, vs.Rows); occ != nil {
				fv := map[string]bool{}
				freeVars(occ, fv)
				for name := range fv {
					if name != v && assigned[name] {
						return nil
					}
				}
				c := &Fused{Kind: FuseRow, Body: occ, Pos: occ.Pos, Plain: fk.plainMatMul(occ)}
				consumers[k] = map[string]*Fused{occ.String(): c}
				xv := &Var{Name: x}
				return &Fused{
					Kind: FuseRow, Body: expr, Pos: expr.pos(),
					Row:   &rowPlan{X: xv, U: f.Inputs[f.Slot].(*BinOp).Right, F: f, G: g, Consumer: c},
					Plain: fz.fuseExpr(expr),
				}
			}
		}
		collectAssigned(stmts[k:k+1], assigned)
		if assigned[v] || assigned[x] {
			return nil
		}
	}
	return nil
}

// findConsumer returns the first t(X) %*% g(v, …) in n, in evaluation
// order, with g compiled as a Row stage linked to v.
func (fz *fuser) findConsumer(n Node, x, v string, rows int) (*BinOp, rowStage) {
	var occ *BinOp
	var g rowStage
	var walk func(Node)
	walk = func(n Node) {
		if occ != nil {
			return
		}
		switch t := n.(type) {
		case *BinOp:
			if t.Op == "%*%" {
				if xv := transposedVar(t.Left, fz.env); xv != nil && xv.Name == x {
					if st, ok := fz.rowStage(t.Right, rows, func(in Node) bool { return isVarNamed(in, v) }); ok && !readsOutsideLink(st, v) {
						occ, g = t, st
						return
					}
				}
			}
			walk(t.Left)
			walk(t.Right)
		case *Unary:
			walk(t.X)
		case *Call:
			for _, a := range t.Args {
				walk(a)
			}
		case *Index:
			walk(t.X)
		}
	}
	walk(n)
	return occ, g
}

// readsOutsideLink reports whether any input of st but its link reads v:
// such an input would be evaluated at the producer, before v is assigned.
func readsOutsideLink(st rowStage, v string) bool {
	for i, in := range st.Inputs {
		fv := map[string]bool{}
		freeVars(in, fv)
		if i != st.Slot && fv[v] {
			return true
		}
	}
	return false
}

// rowStage compiles region as a Row stage: an elementwise program whose
// result is a rows×1 column, whose every input is a scalar or a rows×1
// column (see maybeColumn), and one of whose inputs isLink accepts (the
// first becomes the link).
func (fz *fuser) rowStage(region Node, rows int, isLink func(Node) bool) (rowStage, bool) {
	if rows < 1 || !fz.fusableOp(region) || !maybeColumn(inferAbs(region, fz.env, nil), rows) {
		return rowStage{}, false
	}
	rb := fz.newRegion(region)
	rb.inline(region)
	if rb.failed {
		return rowStage{}, false
	}
	slot := -1
	for i, in := range rb.inputs {
		if s := inferAbs(in, fz.env, nil); !s.IsScalar() && !maybeColumn(s, rows) {
			return rowStage{}, false
		}
		if slot < 0 && isLink(in) {
			slot = i
		}
	}
	if slot < 0 {
		return rowStage{}, false
	}
	prog, err := la.CompileFused(rb.ops, len(rb.inputs))
	if err != nil {
		return rowStage{}, false
	}
	return rowStage{Prog: prog, Inputs: rb.inputs, Slot: slot, MatOps: rb.arith}, true
}

// transposedVar returns X for t(X) with X a variable bound to a matrix of
// known row count, else nil.
func transposedVar(n Node, env absEnv) *Var {
	c, ok := n.(*Call)
	if !ok || c.Fn != "t" {
		return nil
	}
	x, ok := c.Args[0].(*Var)
	if !ok || inferAbs(x, env, nil).Rows < 1 {
		return nil
	}
	return x
}

// marginOf returns X's name when n is X %*% u, a rows×1 product (see
// maybeColumn) of a variable X and u; "" otherwise.
func marginOf(n Node, env absEnv, rows int) string {
	b, ok := n.(*BinOp)
	if !ok || b.Op != "%*%" {
		return ""
	}
	x, ok := b.Left.(*Var)
	if !ok || !inferAbs(x, env, nil).IsMatrix() || !maybeColumn(inferAbs(b, env, nil), rows) {
		return ""
	}
	return x.Name
}

// maybeColumn reports whether s can be a rows×1 column: a matrix of that
// row count whose column count is 1 or not known statically — a loop-carried
// u leaves X %*% u's unknown, and the evaluator checks it before the kernel
// runs.
func maybeColumn(s AbsShape, rows int) bool {
	return s.IsMatrix() && s.Rows == rows && (s.Cols == 1 || s.Cols == DimUnknown)
}

func isVarNamed(n Node, name string) bool {
	v, ok := n.(*Var)
	return ok && v.Name == name
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
