package dml

import (
	"math"
)

// Optimize rewrites the program with SystemML-style algebraic rewrites:
// constant folding, identity elimination, t(t(A)) collapse, aggregate fusion
// (sum(A^2), sum(A*A) → fused sum-of-squares; trace(A%*%B) → fused
// contraction), identity-matrix elimination, and cost-based matrix-chain
// reordering driven by the shapes of the environment's variables.
//
// Shape information comes from the same abstract interpreter the static
// analyzer uses (shapes.go), so anything the analyzer can infer — including
// sizes that flow through constants, eye(n), nrow/ncol, and indexing — is
// available to the size-aware rewrites.
// After the algebraic rewrites, the operator-fusion pass (fuse.go) collapses
// single-consumer elementwise regions into Cell and RowAgg templates, each
// executed by the compiled kernels of la's fused backend.
func (p *Program) Optimize(vars map[string]Shape) *Program {
	return p.optimize(vars, true)
}

// OptimizeUnfused applies every rewrite except operator fusion; the fusion
// experiment (E15) uses it as the materializing baseline.
func (p *Program) OptimizeUnfused(vars map[string]Shape) *Program {
	return p.optimize(vars, false)
}

func (p *Program) optimize(vars map[string]Shape, fuse bool) *Program {
	counter := 0
	stmts := applyLICM(p.Stmts, &counter)
	stmts = optimizeStmts(stmts, envFromShapes(vars))
	if fuse {
		// Fresh env: optimizeStmts mutated its copy while tracking statements.
		stmts = fuseStmts(stmts, envFromShapes(vars))
	}
	return &Program{Stmts: stmts, Src: p.Src, Pool: p.Pool}
}

func envFromShapes(vars map[string]Shape) absEnv {
	env := make(absEnv, len(vars))
	for k, v := range vars {
		env[k] = binding{shape: absFromShape(v), definite: true}
	}
	return env
}

// optimizeStmts rewrites a statement list, tracking variable shapes through
// assignments. Control-flow bodies are rewritten with the loop variable
// bound to a scalar; variables assigned inside a branch or loop get their
// shapes conservatively invalidated afterwards (the construct may or may not
// execute).
func optimizeStmts(stmts []Stmt, env absEnv) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, stmt := range stmts {
		switch {
		case stmt.For != nil:
			inner := env.clone()
			inner[stmt.For.Var] = binding{shape: scalarAbs(), definite: true}
			invalidateAssigned(stmt.For.Body, inner)
			body := optimizeStmts(stmt.For.Body, inner)
			out[i] = Stmt{For: &ForStmt{
				Var:  stmt.For.Var,
				From: rewriteFixpoint(stmt.For.From, env),
				To:   rewriteFixpoint(stmt.For.To, env),
				Body: body,
			}, Pos: stmt.Pos}
			invalidateAssigned(stmt.For.Body, env)
			env[stmt.For.Var] = binding{shape: scalarAbs(), definite: true}
		case stmt.If != nil:
			thenEnv := env.clone()
			elseEnv := env.clone()
			out[i] = Stmt{If: &IfStmt{
				Cond: rewriteFixpoint(stmt.If.Cond, env),
				Then: optimizeStmts(stmt.If.Then, thenEnv),
				Else: optimizeStmts(stmt.If.Else, elseEnv),
			}, Pos: stmt.Pos}
			invalidateAssigned(stmt.If.Then, env)
			invalidateAssigned(stmt.If.Else, env)
		default:
			expr := rewriteFixpoint(stmt.Expr, env)
			out[i] = Stmt{Name: stmt.Name, Expr: expr, Pos: stmt.Pos}
			if stmt.Name != "" {
				env[stmt.Name] = binding{shape: inferAbs(expr, env, nil), definite: true}
			}
		}
	}
	return out
}

// invalidateAssigned clears the shapes of every variable assigned anywhere
// in the statement list (recursively).
func invalidateAssigned(stmts []Stmt, env absEnv) {
	for _, stmt := range stmts {
		switch {
		case stmt.For != nil:
			invalidateAssigned(stmt.For.Body, env)
		case stmt.If != nil:
			invalidateAssigned(stmt.If.Then, env)
			invalidateAssigned(stmt.If.Else, env)
		case stmt.Name != "":
			delete(env, stmt.Name)
		}
	}
}

const maxRewritePasses = 20

func rewriteFixpoint(n Node, env absEnv) Node {
	for pass := 0; pass < maxRewritePasses; pass++ {
		before := n.String()
		n = rewriteNode(n, env)
		if n.String() == before {
			break
		}
	}
	return n
}

// rewriteNode applies one bottom-up rewrite pass.
func rewriteNode(n Node, env absEnv) Node {
	switch t := n.(type) {
	case *NumLit, *Var:
		return n
	case *Unary:
		x := rewriteNode(t.X, env)
		if lit, ok := x.(*NumLit); ok {
			return &NumLit{Val: -lit.Val, Pos: t.Pos}
		}
		if inner, ok := x.(*Unary); ok { // --A → A
			return inner.X
		}
		return &Unary{X: x, Pos: t.Pos}
	case *BinOp:
		l := rewriteNode(t.Left, env)
		r := rewriteNode(t.Right, env)
		nn := &BinOp{Op: t.Op, Left: l, Right: r, Pos: t.Pos}
		if folded, ok := foldConst(nn); ok {
			return folded
		}
		if simplified, ok := identityElim(nn, env); ok {
			return simplified
		}
		if nn.Op == "%*%" {
			return reorderChain(nn, env)
		}
		return nn
	case *Call:
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewriteNode(a, env)
		}
		nn := &Call{Fn: t.Fn, Args: args, Pos: t.Pos}
		return rewriteCall(nn, env)
	case *Index:
		return &Index{
			X:   rewriteNode(t.X, env),
			Row: rewriteSpec(t.Row, env),
			Col: rewriteSpec(t.Col, env),
			Pos: t.Pos,
		}
	}
	return n
}

func rewriteSpec(spec *IndexSpec, env absEnv) *IndexSpec {
	if spec.All {
		return spec
	}
	out := &IndexSpec{Lo: rewriteNode(spec.Lo, env)}
	if spec.Hi != nil {
		out.Hi = rewriteNode(spec.Hi, env)
	}
	return out
}

func foldConst(n *BinOp) (Node, bool) {
	l, lok := n.Left.(*NumLit)
	r, rok := n.Right.(*NumLit)
	if !lok || !rok {
		return nil, false
	}
	var v float64
	switch n.Op {
	case "+":
		v = l.Val + r.Val
	case "-":
		v = l.Val - r.Val
	case "*":
		v = l.Val * r.Val
	case "/":
		v = l.Val / r.Val
	case "^":
		v = math.Pow(l.Val, r.Val)
	default:
		return nil, false
	}
	return &NumLit{Val: v, Pos: n.Pos}, true
}

func isLit(n Node, v float64) bool {
	lit, ok := n.(*NumLit)
	return ok && lit.Val == v
}

// identityElim removes arithmetic identities and identity-matrix products.
func identityElim(n *BinOp, env absEnv) (Node, bool) {
	switch n.Op {
	case "+":
		if isLit(n.Left, 0) {
			return n.Right, true
		}
		if isLit(n.Right, 0) {
			return n.Left, true
		}
	case "-":
		if isLit(n.Right, 0) {
			return n.Left, true
		}
	case "*":
		if isLit(n.Left, 1) {
			return n.Right, true
		}
		if isLit(n.Right, 1) {
			return n.Left, true
		}
	case "/":
		if isLit(n.Right, 1) {
			return n.Left, true
		}
	case "^":
		if isLit(n.Right, 1) {
			return n.Left, true
		}
	case "%*%":
		// A %*% eye(n) → A and eye(n) %*% A → A when shapes agree.
		if c, ok := n.Right.(*Call); ok && c.Fn == "eye" {
			ls := inferAbs(n.Left, env, nil)
			es := inferAbs(c, env, nil)
			if ls.DimsKnown() && es.DimsKnown() && ls.Cols == es.Rows {
				return n.Left, true
			}
		}
		if c, ok := n.Left.(*Call); ok && c.Fn == "eye" {
			rs := inferAbs(n.Right, env, nil)
			es := inferAbs(c, env, nil)
			if rs.DimsKnown() && es.DimsKnown() && es.Cols == rs.Rows {
				return n.Right, true
			}
		}
	}
	return nil, false
}

func rewriteCall(n *Call, env absEnv) Node {
	switch n.Fn {
	case "t":
		// t(t(A)) → A.
		if inner, ok := n.Args[0].(*Call); ok && inner.Fn == "t" {
			return inner.Args[0]
		}
	case "sum":
		arg := n.Args[0]
		if b, ok := arg.(*BinOp); ok {
			// sum(A^2) and sum(A*A) → fused sum-of-squares.
			if b.Op == "^" && isLit(b.Right, 2) {
				return &Call{Fn: "__sumsq", Args: []Node{b.Left}, Pos: n.Pos}
			}
			if b.Op == "*" && b.Left.String() == b.Right.String() {
				return &Call{Fn: "__sumsq", Args: []Node{b.Left}, Pos: n.Pos}
			}
			// sum(A+B) → sum(A)+sum(B) for same-shape matrices: avoids the
			// intermediate sum matrix.
			if b.Op == "+" {
				ls, rs := inferAbs(b.Left, env, nil), inferAbs(b.Right, env, nil)
				if ls.IsMatrix() && rs.IsMatrix() {
					return &BinOp{
						Op:   "+",
						Left: &Call{Fn: "sum", Args: []Node{b.Left}, Pos: n.Pos},
						Right: &Call{Fn: "sum", Args: []Node{b.Right},
							Pos: n.Pos},
						Pos: n.Pos,
					}
				}
			}
		}
	case "trace":
		// trace(A %*% B) → fused pairwise contraction, skipping the product.
		if b, ok := n.Args[0].(*BinOp); ok && b.Op == "%*%" {
			return &Call{Fn: "__tracemm", Args: []Node{b.Left, b.Right}, Pos: n.Pos}
		}
	}
	return n
}

// reorderChain applies the classic matrix-chain-order DP to a %*% chain when
// every factor's shape is known, minimizing intermediate flops. Factor
// shapes come from the analyzer's abstract interpreter, so dimensions that
// are only derivable statically (eye(n) with constant n, index spans,
// nrow/ncol arithmetic) still enable reordering.
func reorderChain(n *BinOp, env absEnv) Node {
	factors := flattenChain(n)
	if len(factors) < 3 {
		return n
	}
	dims := make([]int, len(factors)+1)
	for i, f := range factors {
		s := inferAbs(f, env, nil)
		if !s.DimsKnown() {
			return n
		}
		if i == 0 {
			dims[0] = s.Rows
		} else if dims[i] != s.Rows {
			return n // inconsistent chain; leave for the analyzer/runtime
		}
		dims[i+1] = s.Cols
	}
	k := len(factors)
	// DP over chain splits.
	cost := make([][]float64, k)
	split := make([][]int, k)
	for i := range cost {
		cost[i] = make([]float64, k)
		split[i] = make([]int, k)
	}
	for span := 1; span < k; span++ {
		for i := 0; i+span < k; i++ {
			j := i + span
			cost[i][j] = math.Inf(1)
			for s := i; s < j; s++ {
				c := cost[i][s] + cost[s+1][j] +
					float64(dims[i])*float64(dims[s+1])*float64(dims[j+1])
				if c < cost[i][j] {
					cost[i][j] = c
					split[i][j] = s
				}
			}
		}
	}
	var build func(i, j int) Node
	build = func(i, j int) Node {
		if i == j {
			return factors[i]
		}
		s := split[i][j]
		return &BinOp{Op: "%*%", Left: build(i, s), Right: build(s+1, j), Pos: n.Pos}
	}
	return build(0, k-1)
}

// flattenChain collects the factors of a left-deep (or arbitrary) %*% tree.
func flattenChain(n Node) []Node {
	if b, ok := n.(*BinOp); ok && b.Op == "%*%" {
		return append(flattenChain(b.Left), flattenChain(b.Right)...)
	}
	return []Node{n}
}
