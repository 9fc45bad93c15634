package dml

import (
	"context"
	"fmt"
	"math"

	"dmml/internal/la"
	"dmml/internal/metrics"
	"dmml/internal/ooc"
	"dmml/internal/storage"
)

// Value is a DML runtime value: a scalar, a dense matrix, or a block-paged
// out-of-core matrix produced by read() when the input exceeds the budget of
// the program's Pool.
type Value struct {
	IsScalar bool
	S        float64
	M        *la.Dense
	O        *ooc.Matrix // non-nil for out-of-core matrices; M is nil then
}

// Scalar wraps a float64 as a Value.
func Scalar(v float64) Value { return Value{IsScalar: true, S: v} }

// Matrix wraps a dense matrix as a Value.
func Matrix(m *la.Dense) Value { return Value{M: m} }

// OOC wraps a block-paged out-of-core matrix as a Value.
func OOC(m *ooc.Matrix) Value { return Value{O: m} }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.IsScalar {
		return fmt.Sprintf("%g", v.S)
	}
	if v.O != nil {
		return fmt.Sprintf("<out-of-core matrix %dx%d in %d blocks>", v.O.Rows(), v.O.Cols(), v.O.NumBlocks())
	}
	return v.M.String()
}

// Env binds variable names to values.
type Env map[string]Value

// EvalStats counts the physical work an evaluation performed; the rewrite
// experiments compare these across naive and optimized plans.
type EvalStats struct {
	// CellsAllocated counts matrix cells materialized for intermediates.
	CellsAllocated int64
	// Flops estimates floating-point operations of matrix products and
	// fused aggregates.
	Flops float64
	// CSEHits counts subexpressions answered from the per-statement cache.
	CSEHits int64
	// FusedRegions counts fused-template executions (Cell, RowAgg, Row).
	FusedRegions int64
	// CellsSaved counts the intermediate matrix cells fusion did NOT
	// materialize — what an unfused plan would have added to CellsAllocated.
	CellsSaved int64
	// Warnings holds the lint findings collected by the static analyzer
	// pre-pass (errors abort before evaluation and never appear here).
	Warnings []Diagnostic
}

// Run evaluates the program against env (mutating it with assignments) and
// returns the value of the final statement plus evaluation statistics.
//
// Before any statement executes, the static semantic analyzer validates the
// program against the environment's shapes: error diagnostics (undefined
// variables, dimension mismatches, type errors) abort with no evaluation at
// all, while warnings are collected into EvalStats.Warnings.
func (p *Program) Run(env Env) (Value, *EvalStats, error) {
	stats := &EvalStats{}
	a := p.Analyze(ShapesFromEnv(env))
	stats.Warnings = a.Warnings()
	if errs := a.Errors(); len(errs) > 0 {
		msg := errs[0].Format(p.Src)
		if len(errs) > 1 {
			msg = fmt.Sprintf("%s (and %d more errors)", msg, len(errs)-1)
		}
		return Value{}, stats, fmt.Errorf("dml: %s", msg)
	}
	last, err := p.runStmts(env, stats, p.Stmts)
	return last, stats, err
}

// maxLoopIters caps counted loops so a typo cannot hang the interpreter.
const maxLoopIters = 10_000_000

// runStmts runs one statement block of p: its top level, a loop body or an
// if branch.
func (p *Program) runStmts(env Env, stats *EvalStats, stmts []Stmt) (Value, error) {
	src := p.Src
	var last Value
	// Row products computed by a statement-pair producer, waiting for the
	// consumer later in this block.
	products := map[*Fused]Value{}
	for i, stmt := range stmts {
		fail := func(err error) (Value, error) {
			if src != "" {
				return Value{}, fmt.Errorf("dml: %s: statement %d (%s): %w",
					posString(src, stmt.Pos), i+1, stmt, err)
			}
			return Value{}, fmt.Errorf("dml: statement %d (%s): %w", i+1, stmt, err)
		}
		switch {
		case stmt.For != nil:
			ev := &evaluator{env: env, stats: stats, memo: map[string]Value{}, products: products, pool: p.Pool}
			fromV, err := ev.eval(stmt.For.From)
			if err != nil {
				return fail(err)
			}
			toV, err := ev.eval(stmt.For.To)
			if err != nil {
				return fail(err)
			}
			if !fromV.IsScalar || !toV.IsScalar {
				return fail(fmt.Errorf("loop bounds must be scalars"))
			}
			from, to := int(fromV.S), int(toV.S)
			if to-from+1 > maxLoopIters {
				return fail(fmt.Errorf("loop of %d iterations exceeds the %d cap", to-from+1, maxLoopIters))
			}
			for k := from; k <= to; k++ {
				env[stmt.For.Var] = Scalar(float64(k))
				v, err := p.runStmts(env, stats, stmt.For.Body)
				if err != nil {
					return Value{}, err
				}
				last = v
			}
		case stmt.If != nil:
			ev := &evaluator{env: env, stats: stats, memo: map[string]Value{}, products: products, pool: p.Pool}
			cond, err := ev.eval(stmt.If.Cond)
			if err != nil {
				return fail(err)
			}
			if !cond.IsScalar {
				return fail(fmt.Errorf("if condition must be a scalar"))
			}
			branch := stmt.If.Then
			if cond.S == 0 {
				branch = stmt.If.Else
			}
			v, err := p.runStmts(env, stats, branch)
			if err != nil {
				return Value{}, err
			}
			if len(branch) > 0 {
				last = v
			}
		default:
			ev := &evaluator{env: env, stats: stats, memo: map[string]Value{}, products: products, pool: p.Pool}
			v, err := ev.eval(stmt.Expr)
			if err != nil {
				return fail(err)
			}
			if stmt.Name != "" {
				env[stmt.Name] = v
			}
			last = v
		}
	}
	return last, nil
}

type evaluator struct {
	env   Env
	stats *EvalStats
	memo  map[string]Value // per-statement CSE cache
	// products is the block's Row handoff: a pair producer stores the
	// product under its consumer, which takes it instead of recomputing.
	products map[*Fused]Value
	// pool is the program's Pool, which read() pages large files into.
	pool *storage.BufferPool
	// ctx carries the innermost open metrics span while -stats collection
	// is enabled, so nested operator evaluations report parent/child self
	// time. nil until the first instrumented node.
	ctx context.Context
}

func (e *evaluator) allocCells(rows, cols int) {
	e.stats.CellsAllocated += int64(rows) * int64(cols)
}

// vector wraps a kernel's result slice as a rows×cols matrix Value without
// copying it.
func (e *evaluator) vector(rows, cols int, data []float64) (Value, error) {
	m, err := la.NewDenseData(rows, cols, data)
	if err != nil {
		return Value{}, err
	}
	e.allocCells(rows, cols)
	return Matrix(m), nil
}

func (e *evaluator) eval(n Node) (Value, error) {
	// CSE: identical matrix subtrees inside one statement evaluate once.
	key := ""
	switch n.(type) {
	case *BinOp, *Call, *Index, *Fused:
		key = n.String()
		if v, ok := e.memo[key]; ok {
			e.stats.CSEHits++
			return v, nil
		}
	}
	v, err := e.evalRaw(n)
	if err != nil {
		return Value{}, err
	}
	if key != "" {
		e.memo[key] = v
	}
	return v, nil
}

func (e *evaluator) evalRaw(n Node) (Value, error) {
	// Operator tracing for -stats: each compound node runs under a span so
	// the top-K table can attribute wall time per operator with child time
	// separated out. Everything inside this block is skipped — at the cost
	// of one atomic load — when collection is disabled.
	if metrics.Enabled() {
		if name := opSpanName(n); name != "" {
			saved := e.ctx
			if saved == nil {
				saved = context.Background()
			}
			ctx, end := metrics.Span(saved, name)
			e.ctx = ctx
			defer func() {
				end()
				e.ctx = saved
			}()
		}
	}
	switch t := n.(type) {
	case *NumLit:
		return Scalar(t.Val), nil
	case *StrLit:
		return Value{}, fmt.Errorf("string literal %s is only valid as the argument of read()", t)
	case *Var:
		v, ok := e.env[t.Name]
		if !ok {
			return Value{}, fmt.Errorf("undefined variable %q", t.Name)
		}
		return v, nil
	case *Unary:
		v, err := e.eval(t.X)
		if err != nil {
			return Value{}, err
		}
		if v.IsScalar {
			return Scalar(-v.S), nil
		}
		m, err := e.dense(v, "unary minus")
		if err != nil {
			return Value{}, err
		}
		out := m.Clone().Scale(-1)
		e.allocCells(out.Rows(), out.Cols())
		return Matrix(out), nil
	case *BinOp:
		return e.evalBinOp(t)
	case *Call:
		return e.evalCall(t)
	case *Fused:
		if t.Kind == FuseRow {
			return e.evalRow(t)
		}
		return e.evalFused(t)
	case *Index:
		return e.evalIndex(t)
	default:
		return Value{}, fmt.Errorf("unknown node type %T", n)
	}
}

func (e *evaluator) evalBinOp(n *BinOp) (Value, error) {
	if n.Op == "%*%" {
		return e.evalMatMul(n)
	}
	l, err := e.eval(n.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(n.Right)
	if err != nil {
		return Value{}, err
	}
	op := "element-wise " + n.Op
	lm, err := e.dense(l, op)
	if err != nil {
		return Value{}, err
	}
	rm, err := e.dense(r, op)
	if err != nil {
		return Value{}, err
	}
	if compareOps[n.Op] {
		if !l.IsScalar || !r.IsScalar {
			return Value{}, fmt.Errorf("comparison %s needs scalar operands", n.Op)
		}
		return Scalar(boolToFloat(compare(n.Op, l.S, r.S))), nil
	}
	apply := func(a, b float64) (float64, error) {
		switch n.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			return a / b, nil
		case "^":
			return math.Pow(a, b), nil
		}
		return 0, fmt.Errorf("unknown operator %q", n.Op)
	}
	switch {
	case l.IsScalar && r.IsScalar:
		v, err := apply(l.S, r.S)
		return Scalar(v), err
	case l.IsScalar:
		out := rm.Clone()
		e.allocCells(out.Rows(), out.Cols())
		var ferr error
		out.Apply(func(x float64) float64 {
			v, err := apply(l.S, x)
			if err != nil {
				ferr = err
			}
			return v
		})
		return Matrix(out), ferr
	case r.IsScalar:
		out := lm.Clone()
		e.allocCells(out.Rows(), out.Cols())
		var ferr error
		out.Apply(func(x float64) float64 {
			v, err := apply(x, r.S)
			if err != nil {
				ferr = err
			}
			return v
		})
		return Matrix(out), ferr
	default:
		lr, lc := lm.Dims()
		rr, rc := rm.Dims()
		if lr != rr || lc != rc {
			return Value{}, fmt.Errorf("element-wise %s on %dx%d and %dx%d", n.Op, lr, lc, rr, rc)
		}
		out := lm.Clone()
		e.allocCells(lr, lc)
		ld, rd := out.RawData(), rm.RawData()
		for i := range ld {
			v, err := apply(ld[i], rd[i])
			if err != nil {
				return Value{}, err
			}
			ld[i] = v
		}
		return Matrix(out), nil
	}
}

// evalMatMul executes %*% with physical-operator selection: t(X) %*% X maps
// to the Gram kernel, products against thin right-hand sides map to
// matrix–vector kernels, and t(X) %*% y avoids materializing the transpose.
// Those three run over either representation (see the branch points in
// ooc.go); everything else needs its operands dense.
func (e *evaluator) evalMatMul(n *BinOp) (Value, error) {
	if lt, ok := n.Left.(*Call); ok && lt.Fn == "t" {
		inner, err := e.eval(lt.Args[0])
		if err != nil {
			return Value{}, err
		}
		if !inner.IsScalar { // t(scalar) is the generic path's error to report
			return e.transposeMatMul(inner, lt.Args[0].String() == n.Right.String(), n.Right)
		}
	}
	l, err := e.eval(n.Left)
	if err != nil {
		return Value{}, err
	}
	r, err := e.eval(n.Right)
	if err != nil {
		return Value{}, err
	}
	return e.genericMatMul(l, r)
}

// transposeMatMul is t(A) %*% right for a matrix A; isGram says right is A
// itself.
func (e *evaluator) transposeMatMul(inner Value, isGram bool, right Node) (Value, error) {
	rows, cols := inner.dims()
	// t(A) %*% A → Gram(A) without materializing the transpose.
	if isGram {
		g, err := inner.gram()
		if err != nil {
			return Value{}, err
		}
		e.stats.Flops += float64(rows) * float64(cols) * float64(cols)
		e.allocCells(cols, cols)
		return Matrix(g), nil
	}
	rv, err := e.eval(right)
	if err != nil {
		return Value{}, err
	}
	b, err := e.dense(rv, "%*% with an out-of-core right operand")
	if err != nil {
		return Value{}, err
	}
	// t(A) %*% y with a column y → VecMat on A (no transpose).
	if !rv.IsScalar && b.Cols() == 1 {
		if rows != b.Rows() {
			return Value{}, fmt.Errorf("%%*%% on %dx%d and %dx%d", cols, rows, b.Rows(), b.Cols())
		}
		res, err := inner.vecMat(b.RawData())
		if err != nil {
			return Value{}, err
		}
		e.stats.Flops += 2 * float64(rows) * float64(cols)
		return e.vector(cols, 1, res)
	}
	a, err := e.dense(inner, "t(X) %*% B with a wide right operand")
	if err != nil {
		return Value{}, err
	}
	// Generic path with the transpose materialized.
	return e.genericMatMul(Matrix(a.T()), rv)
}

func (e *evaluator) genericMatMul(l, r Value) (Value, error) {
	if l.IsScalar || r.IsScalar {
		return Value{}, fmt.Errorf("%%*%% needs matrices on both sides")
	}
	b, err := e.dense(r, "%*% with an out-of-core right operand")
	if err != nil {
		return Value{}, err
	}
	lr, lc := l.dims()
	rr, rc := b.Dims()
	if lc != rr {
		return Value{}, fmt.Errorf("%%*%% on %dx%d and %dx%d", lr, lc, rr, rc)
	}
	if rc == 1 {
		res, err := l.matVec(b.RawData())
		if err != nil {
			return Value{}, err
		}
		e.stats.Flops += 2 * float64(lr) * float64(lc)
		return e.vector(lr, 1, res)
	}
	a, err := e.dense(l, "X %*% B with a wide right operand")
	if err != nil {
		return Value{}, err
	}
	e.stats.Flops += 2 * float64(lr) * float64(lc) * float64(rc)
	e.allocCells(lr, rc)
	return Matrix(la.MatMul(a, b)), nil
}

// evalFused executes a fused region: inputs evaluate through the normal
// (CSE-cached) path, then the compiled micro-op program runs as one pass —
// a Cell template writes a single output matrix, a RowAgg template reduces
// with no materialized intermediate at all. Only the final output counts
// toward CellsAllocated; the intermediates an unfused plan would have
// materialized accumulate in CellsSaved instead.
func (e *evaluator) evalFused(n *Fused) (Value, error) {
	ins := make([]la.FusedInput, len(n.Inputs))
	rows, cols := -1, -1
	for i, in := range n.Inputs {
		v, err := e.eval(in)
		if err != nil {
			return Value{}, err
		}
		if v.IsScalar {
			ins[i] = la.ScalarInput(v.S)
			continue
		}
		m, err := e.dense(v, "fused element-wise region")
		if err != nil {
			return Value{}, err
		}
		r, c := m.Dims()
		if rows < 0 {
			rows, cols = r, c
		} else if r != rows || c != cols {
			return Value{}, fmt.Errorf("element-wise op on %dx%d and %dx%d in fused region", rows, cols, r, c)
		}
		ins[i] = la.DenseInput(m)
	}
	if rows < 0 {
		// Every input turned out scalar at runtime; the region was fused on
		// static shape information that no longer holds, so evaluate the
		// original expression instead.
		return e.eval(n.Body)
	}
	prog := n.Prog
	cells := int64(rows) * int64(cols)
	e.stats.FusedRegions++
	e.stats.Flops += float64(prog.ArithOps()) * float64(cells)
	if n.Kind == FuseCell {
		out := la.FusedCell(prog, ins, rows, cols)
		e.allocCells(rows, cols)
		e.stats.CellsSaved += int64(n.MatOps-1) * cells
		return Matrix(out), nil
	}
	e.stats.CellsSaved += int64(n.MatOps) * cells
	switch n.Agg {
	case aggRowSums:
		out := la.NewDense(rows, 1)
		la.FusedRowSumsInto(out.RawData(), prog, ins, rows, cols)
		e.allocCells(rows, 1)
		return Matrix(out), nil
	case aggColSums:
		out := la.NewDense(1, cols)
		la.FusedColSumsInto(out.RawData(), prog, ins, rows, cols)
		e.allocCells(1, cols)
		return Matrix(out), nil
	case aggMatVec:
		v, err := e.eval(n.Vec)
		if err != nil {
			return Value{}, err
		}
		if v.IsScalar {
			return Value{}, fmt.Errorf("%%*%% needs matrices on both sides")
		}
		vm, err := e.dense(v, "%*% with an out-of-core right operand")
		if err != nil {
			return Value{}, err
		}
		vr, vc := vm.Dims()
		if vc != 1 || vr != cols {
			return Value{}, fmt.Errorf("%%*%% on %dx%d and %dx%d", rows, cols, vr, vc)
		}
		e.stats.Flops += 2 * float64(cells)
		out := la.NewDense(rows, 1)
		la.FusedMatVecInto(out.RawData(), prog, ins, rows, cols, vm.RawData())
		e.allocCells(rows, 1)
		return Matrix(out), nil
	default: // aggSum
		return Scalar(la.FusedSum(prog, ins, rows, cols)), nil
	}
}

// evalRow executes a Row region. The single-statement form and a pair's
// producer run la.FusedRowInto when X is an in-memory matrix and u and every
// operand are columns of its row count (or scalars); the producer then
// returns v and leaves the product for its consumer. Otherwise — and on a
// consumer whose producer did not run the template — Plain runs instead.
// CellsSaved counts the margins and every intermediate of f and g that the
// unfused plan materializes and this one does not.
func (e *evaluator) evalRow(n *Fused) (Value, error) {
	r := n.Row
	if r == nil {
		if v, ok := e.products[n]; ok {
			delete(e.products, n)
			return v, nil
		}
		return e.eval(n.Plain)
	}
	xv, err := e.eval(r.X)
	if err != nil {
		return Value{}, err
	}
	if xv.M == nil {
		return e.eval(n.Plain)
	}
	rows, cols := xv.M.Dims()
	uv, err := e.eval(r.U)
	if err != nil {
		return Value{}, err
	}
	if uv.M == nil || uv.M.Rows() != cols || uv.M.Cols() != 1 {
		return e.eval(n.Plain)
	}
	var f la.RowCell
	var v *la.Dense
	if r.F.Prog != nil {
		ins, ok, err := e.rowInputs(r.F, rows)
		if err != nil {
			return Value{}, err
		}
		if !ok {
			return e.eval(n.Plain)
		}
		f, v = la.RowCell{Prog: r.F.Prog, Ins: ins, Slot: r.F.Slot}, la.NewDense(rows, 1)
	}
	// g's operands belong to the consumer's statement in the pair form: one
	// that fails here is left for that statement's plain plan to report.
	gins, ok, err := e.rowInputs(r.G, rows)
	if err != nil && r.Consumer == nil {
		return Value{}, err
	}
	if !ok {
		return e.eval(n.Plain)
	}
	var vd []float64
	if v != nil {
		vd = v.RawData()
	}
	prod := la.FusedRowInto(make([]float64, cols), vd, xv.M, uv.M.RawData(), f,
		la.RowCell{Prog: r.G.Prog, Ins: gins, Slot: r.G.Slot})
	e.stats.FusedRegions++
	arith := r.G.Prog.ArithOps()
	if r.F.Prog != nil {
		arith += r.F.Prog.ArithOps()
	}
	e.stats.Flops += (4*float64(cols) + float64(arith)) * float64(rows)
	e.stats.CellsSaved += int64(1+r.F.MatOps+r.G.MatOps) * int64(rows)
	pv, err := e.vector(cols, 1, prod)
	if err != nil || r.Consumer == nil {
		return pv, err
	}
	e.products[r.Consumer] = pv
	e.stats.CellsSaved -= int64(rows)
	e.allocCells(rows, 1)
	return Matrix(v), nil
}

// rowInputs evaluates a Row stage's operands — all but its link — into
// kernel inputs; ok is false when one is neither a scalar nor a rows×1
// in-memory column.
func (e *evaluator) rowInputs(st rowStage, rows int) ([]la.FusedInput, bool, error) {
	ins := make([]la.FusedInput, len(st.Inputs))
	for i, in := range st.Inputs {
		if i == st.Slot {
			continue
		}
		v, err := e.eval(in)
		if err != nil {
			return nil, false, err
		}
		switch {
		case v.IsScalar:
			ins[i] = la.ScalarInput(v.S)
		case v.M != nil && v.M.Rows() == rows && v.M.Cols() == 1:
			ins[i] = la.DenseInput(v.M)
		default:
			return nil, false, nil
		}
	}
	return ins, true, nil
}

func (e *evaluator) evalCall(n *Call) (Value, error) {
	// Fused operators and read() first: they bypass child materialization
	// (read's argument is a string literal, not an evaluable expression).
	switch n.Fn {
	case "read":
		s, ok := n.Args[0].(*StrLit)
		if !ok {
			return Value{}, fmt.Errorf("read: argument must be a string literal path")
		}
		v, err := readMatrix(e.pool, s.Val)
		if err != nil {
			return Value{}, fmt.Errorf("read(%q): %w", s.Val, err)
		}
		if v.M != nil {
			e.allocCells(v.M.Rows(), v.M.Cols())
		}
		return v, nil
	case "__sumsq":
		v, err := e.eval(n.Args[0])
		if err != nil {
			return Value{}, err
		}
		if v.IsScalar {
			return Scalar(v.S * v.S), nil
		}
		m, err := e.dense(v, "sum(X^2)")
		if err != nil {
			return Value{}, err
		}
		e.stats.Flops += 2 * float64(m.Rows()) * float64(m.Cols())
		return Scalar(m.SumSq()), nil
	case "__tracemm":
		av, err := e.eval(n.Args[0])
		if err != nil {
			return Value{}, err
		}
		bv, err := e.eval(n.Args[1])
		if err != nil {
			return Value{}, err
		}
		if av.IsScalar || bv.IsScalar {
			return Value{}, fmt.Errorf("__tracemm needs matrices")
		}
		a, err := e.dense(av, "trace(A %*% B)")
		if err != nil {
			return Value{}, err
		}
		b, err := e.dense(bv, "trace(A %*% B)")
		if err != nil {
			return Value{}, err
		}
		ar, ac := a.Dims()
		br, bc := b.Dims()
		if ac != br || ar != bc {
			return Value{}, fmt.Errorf("trace(A %%*%% B) on %dx%d and %dx%d", ar, ac, br, bc)
		}
		e.stats.Flops += 2 * float64(ar) * float64(ac)
		return Scalar(la.TraceMatMul(a, b)), nil
	}

	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := e.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	// anyMatrix admits either representation (the streaming builtins);
	// needMatrix demands the dense one.
	anyMatrix := func(i int) (Value, error) {
		if args[i].IsScalar {
			return Value{}, fmt.Errorf("%s: argument %d must be a matrix", n.Fn, i+1)
		}
		return args[i], nil
	}
	needMatrix := func(i int) (*la.Dense, error) {
		v, err := anyMatrix(i)
		if err != nil {
			return nil, err
		}
		return e.dense(v, n.Fn)
	}
	elementwise := func(f func(float64) float64) (Value, error) {
		if args[0].IsScalar {
			return Scalar(f(args[0].S)), nil
		}
		m, err := e.dense(args[0], n.Fn)
		if err != nil {
			return Value{}, err
		}
		out := m.Clone().Apply(f)
		e.allocCells(out.Rows(), out.Cols())
		return Matrix(out), nil
	}
	switch n.Fn {
	case "t":
		m, err := needMatrix(0)
		if err != nil {
			return Value{}, err
		}
		e.allocCells(m.Cols(), m.Rows())
		return Matrix(m.T()), nil
	case "sum", "mean":
		if args[0].IsScalar {
			return args[0], nil
		}
		total, err := args[0].sum(n.Fn)
		if err != nil {
			return Value{}, err
		}
		if n.Fn == "mean" {
			rows, cols := args[0].dims()
			return Scalar(total / (float64(rows) * float64(cols))), nil
		}
		return Scalar(total), nil
	case "min", "max":
		if args[0].IsScalar {
			return args[0], nil
		}
		m, err := e.dense(args[0], n.Fn)
		if err != nil {
			return Value{}, err
		}
		data := m.RawData()
		best := data[0]
		for _, v := range data[1:] {
			if (n.Fn == "min" && v < best) || (n.Fn == "max" && v > best) {
				best = v
			}
		}
		return Scalar(best), nil
	case "trace":
		m, err := needMatrix(0)
		if err != nil {
			return Value{}, err
		}
		if m.Rows() != m.Cols() {
			return Value{}, fmt.Errorf("trace of non-square %dx%d", m.Rows(), m.Cols())
		}
		return Scalar(la.Trace(m)), nil
	case "nrow", "ncol":
		v, err := anyMatrix(0)
		if err != nil {
			return Value{}, err
		}
		rows, cols := v.dims()
		if n.Fn == "nrow" {
			return Scalar(float64(rows)), nil
		}
		return Scalar(float64(cols)), nil
	case "rowSums":
		m, err := needMatrix(0)
		if err != nil {
			return Value{}, err
		}
		return e.vector(m.Rows(), 1, m.RowSums())
	case "colSums":
		v, err := anyMatrix(0)
		if err != nil {
			return Value{}, err
		}
		sums, err := v.colSums(n.Fn)
		if err != nil {
			return Value{}, err
		}
		return e.vector(1, len(sums), sums)
	case "exp":
		return elementwise(math.Exp)
	case "log":
		return elementwise(math.Log)
	case "sqrt":
		return elementwise(math.Sqrt)
	case "abs":
		return elementwise(math.Abs)
	case "sigmoid":
		if args[0].IsScalar {
			return Scalar(la.Sigmoid(args[0].S)), nil
		}
		m, err := e.dense(args[0], n.Fn)
		if err != nil {
			return Value{}, err
		}
		out := la.NewDense(m.Rows(), m.Cols())
		la.SigmoidInto(out.RawData(), m.RawData())
		e.allocCells(out.Rows(), out.Cols())
		return Matrix(out), nil
	case "eye":
		if !args[0].IsScalar {
			return Value{}, fmt.Errorf("eye: argument must be a scalar")
		}
		k := int(args[0].S)
		if k < 1 || float64(k) != args[0].S {
			return Value{}, fmt.Errorf("eye: need a positive integer, got %g", args[0].S)
		}
		e.allocCells(k, k)
		return Matrix(la.Identity(k)), nil
	case "cbind", "rbind":
		a, err := needMatrix(0)
		if err != nil {
			return Value{}, err
		}
		b, err := needMatrix(1)
		if err != nil {
			return Value{}, err
		}
		var out *la.Dense
		if n.Fn == "cbind" {
			out, err = la.HCat(a, b)
		} else {
			out, err = la.Stack(a, b)
		}
		if err != nil {
			return Value{}, fmt.Errorf("%s: %w", n.Fn, err)
		}
		e.allocCells(out.Rows(), out.Cols())
		return Matrix(out), nil
	case "solve":
		a, err := needMatrix(0)
		if err != nil {
			return Value{}, err
		}
		b, err := needMatrix(1)
		if err != nil {
			return Value{}, err
		}
		if a.Rows() != a.Cols() {
			return Value{}, fmt.Errorf("solve: coefficient matrix is %dx%d, want square", a.Rows(), a.Cols())
		}
		if b.Rows() != a.Rows() || b.Cols() != 1 {
			return Value{}, fmt.Errorf("solve: rhs is %dx%d, want %dx1", b.Rows(), b.Cols(), a.Rows())
		}
		rhs := b.Col(0)
		x, err := la.SolveSPD(a, rhs)
		if err != nil {
			// Non-SPD systems fall back to least squares via QR.
			x, err = la.LstSq(a, rhs)
			if err != nil {
				return Value{}, fmt.Errorf("solve: %w", err)
			}
		}
		e.stats.Flops += float64(a.Rows()) * float64(a.Rows()) * float64(a.Rows()) / 3
		return e.vector(len(x), 1, x)
	default:
		return Value{}, fmt.Errorf("unknown function %q", n.Fn)
	}
}

func compare(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	case ">=":
		return a >= b
	case "==":
		return a == b
	default: // "!="
		return a != b
	}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// evalIndex executes right indexing with 1-based inclusive bounds.
func (e *evaluator) evalIndex(n *Index) (Value, error) {
	base, err := e.eval(n.X)
	if err != nil {
		return Value{}, err
	}
	if base.IsScalar {
		return Value{}, fmt.Errorf("cannot index a scalar")
	}
	m, err := e.dense(base, "indexing")
	if err != nil {
		return Value{}, err
	}
	rows, cols := m.Dims()
	r0, r1, err := e.resolveSpec(n.Row, rows, "row")
	if err != nil {
		return Value{}, err
	}
	c0, c1, err := e.resolveSpec(n.Col, cols, "column")
	if err != nil {
		return Value{}, err
	}
	if r0 == r1-1 && c0 == c1-1 {
		return Scalar(m.At(r0, c0)), nil
	}
	out := m.Slice(r0, r1, c0, c1)
	e.allocCells(out.Rows(), out.Cols())
	return Matrix(out), nil
}

// resolveSpec converts a 1-based IndexSpec into a half-open 0-based range.
func (e *evaluator) resolveSpec(spec *IndexSpec, size int, axis string) (lo, hi int, err error) {
	if spec.All {
		return 0, size, nil
	}
	loV, err := e.eval(spec.Lo)
	if err != nil {
		return 0, 0, err
	}
	if !loV.IsScalar {
		return 0, 0, fmt.Errorf("%s index must be a scalar", axis)
	}
	lo1 := int(loV.S)
	if float64(lo1) != loV.S {
		return 0, 0, fmt.Errorf("%s index %g is not an integer", axis, loV.S)
	}
	hi1 := lo1
	if spec.Hi != nil {
		hiV, err := e.eval(spec.Hi)
		if err != nil {
			return 0, 0, err
		}
		if !hiV.IsScalar {
			return 0, 0, fmt.Errorf("%s index must be a scalar", axis)
		}
		hi1 = int(hiV.S)
		if float64(hi1) != hiV.S {
			return 0, 0, fmt.Errorf("%s index %g is not an integer", axis, hiV.S)
		}
	}
	if lo1 < 1 || hi1 < lo1 || hi1 > size {
		return 0, 0, fmt.Errorf("%s range %d:%d out of bounds for size %d", axis, lo1, hi1, size)
	}
	return lo1 - 1, hi1, nil
}
