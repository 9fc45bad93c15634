package dml

import (
	"fmt"
)

// Loop-invariant code motion: expensive subexpressions inside a loop body
// whose free variables are untouched by the loop are hoisted into temporary
// assignments before the loop, so they evaluate once instead of per
// iteration — SystemML's classic rewrite for iterative scripts like
//
//	for (i in 1:k) { w = w - a * t(X) %*% (X %*% w - y) }
//
// where t(X) is invariant (and, with CSE off across statements, would
// otherwise re-materialize every iteration).
//
// Hoisting is speculative: a hoisted expression evaluates even when the loop
// body would have run zero times. Expressions are pure, so this only costs
// wasted work — except that a hoisted expression which would error (e.g. a
// singular solve) now errors unconditionally. This matches SystemML's
// semantics for its own code motion.

// licmTempPrefix names generated temporaries; the lexer accepts leading
// underscores so hoisted programs still render/parse.
const licmTempPrefix = "__licm"

// applyLICM rewrites a statement list, hoisting invariant subexpressions out
// of every loop (recursively). counter numbers the generated temporaries.
func applyLICM(stmts []Stmt, counter *int) []Stmt {
	var out []Stmt
	for _, stmt := range stmts {
		switch {
		case stmt.For != nil:
			body := applyLICM(stmt.For.Body, counter)
			assigned := map[string]bool{stmt.For.Var: true}
			collectAssigned(body, assigned)
			var prelude []Stmt
			hoisted := map[string]string{} // expr string -> temp name
			for i := range body {
				if body[i].Expr != nil {
					body[i].Expr = hoistNode(body[i].Expr, assigned, hoisted, &prelude, counter, true)
				}
				// Loop bounds of nested loops were already handled by the
				// recursive applyLICM call; conditions of nested ifs too.
			}
			out = append(out, prelude...)
			out = append(out, Stmt{For: &ForStmt{
				Var: stmt.For.Var, From: stmt.For.From, To: stmt.For.To, Body: body,
			}, Pos: stmt.Pos})
		case stmt.If != nil:
			out = append(out, Stmt{If: &IfStmt{
				Cond: stmt.If.Cond,
				Then: applyLICM(stmt.If.Then, counter),
				Else: applyLICM(stmt.If.Else, counter),
			}, Pos: stmt.Pos})
		default:
			out = append(out, stmt)
		}
	}
	return out
}

// collectAssigned records every variable assigned in the statement list.
func collectAssigned(stmts []Stmt, into map[string]bool) {
	for _, stmt := range stmts {
		switch {
		case stmt.For != nil:
			into[stmt.For.Var] = true
			collectAssigned(stmt.For.Body, into)
		case stmt.If != nil:
			collectAssigned(stmt.If.Then, into)
			collectAssigned(stmt.If.Else, into)
		case stmt.Name != "":
			into[stmt.Name] = true
		}
	}
}

// freeVars collects variable references in an expression.
func freeVars(n Node, into map[string]bool) {
	switch t := n.(type) {
	case *Var:
		into[t.Name] = true
	case *Unary:
		freeVars(t.X, into)
	case *BinOp:
		freeVars(t.Left, into)
		freeVars(t.Right, into)
	case *Call:
		for _, a := range t.Args {
			freeVars(a, into)
		}
	case *Fused:
		// Body subsumes Inputs and Vec: both are subtrees of the original
		// expression.
		freeVars(t.Body, into)
	case *Index:
		freeVars(t.X, into)
		if !t.Row.All {
			freeVars(t.Row.Lo, into)
			if t.Row.Hi != nil {
				freeVars(t.Row.Hi, into)
			}
		}
		if !t.Col.All {
			freeVars(t.Col.Lo, into)
			if t.Col.Hi != nil {
				freeVars(t.Col.Hi, into)
			}
		}
	}
}

// isInvariant reports whether every free variable of n escapes the loop's
// assigned set.
func isInvariant(n Node, assigned map[string]bool) bool {
	fv := map[string]bool{}
	freeVars(n, fv)
	for v := range fv {
		if assigned[v] {
			return false
		}
	}
	return true
}

// worthHoisting limits motion to expressions that cost real work per
// iteration: matrix products, solves, transposes, and the aggregate calls.
func worthHoisting(n Node) bool {
	switch t := n.(type) {
	case *BinOp:
		return t.Op == "%*%"
	case *Call:
		switch t.Fn {
		case "t", "solve", "eye", "__tracemm":
			return true
		}
	}
	return false
}

// hoistNode walks an expression; maximal invariant + worthwhile subtrees are
// replaced by temp variables whose defining assignments accumulate in
// prelude. top marks the statement root (never replaced wholesale, so the
// statement keeps its own assignment semantics). A t() call that is the
// left operand of %*% is deliberately left in place: the evaluator fuses
// that pattern (Gram / transpose-free products), which beats hoisting a
// materialized transpose.
func hoistNode(n Node, assigned map[string]bool, hoisted map[string]string, prelude *[]Stmt, counter *int, top bool) Node {
	return hoistNodeCtx(n, assigned, hoisted, prelude, counter, top, false)
}

func hoistNodeCtx(n Node, assigned map[string]bool, hoisted map[string]string, prelude *[]Stmt, counter *int, top, fusedT bool) Node {
	if c, ok := n.(*Call); ok && c.Fn == "t" && fusedT {
		// Keep the transpose for the fused physical operator; still hoist
		// inside its argument.
		return &Call{Fn: "t", Args: []Node{
			hoistNodeCtx(c.Args[0], assigned, hoisted, prelude, counter, false, false),
		}, Pos: c.Pos}
	}
	if !top && worthHoisting(n) && isInvariant(n, assigned) {
		key := n.String()
		name, ok := hoisted[key]
		if !ok {
			*counter++
			name = fmt.Sprintf("%s%d", licmTempPrefix, *counter)
			hoisted[key] = name
			*prelude = append(*prelude, Stmt{Name: name, Expr: n, Pos: n.pos()})
		}
		return &Var{Name: name, Pos: n.pos()}
	}
	switch t := n.(type) {
	case *Unary:
		return &Unary{X: hoistNodeCtx(t.X, assigned, hoisted, prelude, counter, false, false), Pos: t.Pos}
	case *BinOp:
		return &BinOp{
			Op:    t.Op,
			Left:  hoistNodeCtx(t.Left, assigned, hoisted, prelude, counter, false, t.Op == "%*%"),
			Right: hoistNodeCtx(t.Right, assigned, hoisted, prelude, counter, false, false),
			Pos:   t.Pos,
		}
	case *Call:
		args := make([]Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = hoistNodeCtx(a, assigned, hoisted, prelude, counter, false, false)
		}
		return &Call{Fn: t.Fn, Args: args, Pos: t.Pos}
	default:
		return n
	}
}
