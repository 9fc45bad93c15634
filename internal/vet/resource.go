package vet

// Shared resource-binding and escape analysis for scratchpair and spanpair.
// An "acquire" is a call returning an owned resource (a pooled buffer, a
// span-end function, a running stopwatch). The binding scanner finds the
// statement forms acquires appear in; the escape scanner classifies every
// use of the bound variable as borrow (indexing, slicing, call argument) or
// escape (alias, store, return, send) — only resources that never escape go
// through the all-paths release proof in paths.go.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// acquireBinding is one acquisition site within a function context.
type acquireBinding struct {
	stmt ast.Stmt      // statement performing the acquire (nil when naked)
	call *ast.CallExpr // the acquire call itself
	obj  types.Object  // variable bound to the resource; nil if not bound
	// discarded: the result was dropped (blank identifier or bare call).
	discarded bool
	// storedAtBirth: the result was assigned to a non-identifier lvalue
	// (field, index, global) in the acquiring statement itself.
	storedAtBirth bool
	// naked: the call appears nested inside another expression (a return
	// value, a call argument) with no local binding at all.
	naked bool
}

// findAcquires scans one function context (not descending into nested
// function literals) for acquisitions. isAcquire matches the call;
// resultIndex says which assignment slot binds the owned resource (0 for
// pool.GetF64's buffer, 1 for metrics.Span's end func).
func findAcquires(pass *Pass, body *ast.BlockStmt, isAcquire func(*ast.CallExpr) bool, resultIndex int) []acquireBinding {
	var out []acquireBinding
	consumed := make(map[*ast.CallExpr]bool)

	bindLHS := func(stmt ast.Stmt, call *ast.CallExpr, lhs ast.Expr, define bool) {
		b := acquireBinding{stmt: stmt, call: call}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				b.discarded = true
			} else if define {
				b.obj = pass.Info.Defs[l]
			} else {
				b.obj = pass.Info.Uses[l]
			}
		default:
			b.storedAtBirth = true
		}
		out = append(out, b)
	}

	inspectContext(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			define := s.Tok == token.DEFINE
			if len(s.Rhs) == 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isAcquire(call) {
					consumed[call] = true
					if resultIndex < len(s.Lhs) {
						bindLHS(s, call, s.Lhs[resultIndex], define)
					} else {
						out = append(out, acquireBinding{stmt: s, call: call, discarded: true})
					}
					return true
				}
			}
			if len(s.Rhs) == len(s.Lhs) {
				for i, r := range s.Rhs {
					if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isAcquire(call) && resultIndex == 0 {
						consumed[call] = true
						bindLHS(s, call, s.Lhs[i], define)
					}
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 {
					continue
				}
				call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
				if !ok || !isAcquire(call) {
					continue
				}
				consumed[call] = true
				if resultIndex < len(vs.Names) {
					name := vs.Names[resultIndex]
					b := acquireBinding{stmt: s, call: call}
					if name.Name == "_" {
						b.discarded = true
					} else {
						b.obj = pass.Info.Defs[name]
					}
					out = append(out, b)
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isAcquire(call) {
				consumed[call] = true
				out = append(out, acquireBinding{stmt: s, call: call, discarded: true})
			}
		}
		return true
	})

	// Second pass: acquire calls nested inside larger expressions.
	inspectContext(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAcquire(call) && !consumed[call] {
			out = append(out, acquireBinding{call: call, naked: true})
		}
		return true
	})
	return out
}

// escapeResult classifies how a bound resource leaves its function context.
type escapeResult struct {
	node ast.Node
	desc string
}

// findEscape scans every use of obj in the context (including nested
// function literals — a closure can store its capture) and returns the
// first ownership-leaving use, or nil.
func findEscape(pass *Pass, body *ast.BlockStmt, obj types.Object, acquire *ast.CallExpr) *escapeResult {

	parents := buildParents(body)
	var esc *escapeResult
	ast.Inspect(body, func(n ast.Node) bool {
		if esc != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != obj {
			return true
		}
		if r := classifyUse(pass, id, parents, obj, acquire); r != nil {
			esc = r
			return false
		}
		return true
	})
	return esc
}

// classifyUse climbs from one identifier use to its enclosing statement,
// deciding whether the use lets the resource escape.
func classifyUse(pass *Pass, id *ast.Ident, parents map[ast.Node]ast.Node, obj types.Object,
	acquire *ast.CallExpr) *escapeResult {

	insideCallArgs := false
	var prev ast.Node = id
	for n := parents[id]; n != nil; n = parents[n] {
		switch p := n.(type) {
		case *ast.CallExpr:
			if p == acquire {
				return nil // the acquiring call itself
			}
			if prev != p.Fun {
				// Passed as an argument: a borrow. The callee may release it
				// (the release matcher sees through this) but is assumed not
				// to retain it.
				insideCallArgs = true
			}
		case *ast.IndexExpr:
			if prev == p.X {
				// Element access: the resulting value is an element of the
				// buffer, not the buffer — no alias can form from it.
				return nil
			}
		case *ast.CompositeLit:
			return &escapeResult{node: id, desc: "stored in a composite literal"}
		case *ast.UnaryExpr:
			if p.Op == token.AND && prev == id {
				return &escapeResult{node: id, desc: "has its address taken"}
			}
		case *ast.AssignStmt:
			onLHS := false
			for _, l := range p.Lhs {
				if containsNode(l, prev) {
					onLHS = true
				}
			}
			if onLHS {
				return nil // writing the variable itself (rebind, reslice)
			}
			if insideCallArgs {
				return nil
			}
			// The resource value flows into another lvalue: find which one.
			// Same-length assignments pair positionally; otherwise be
			// conservative and treat any non-obj LHS mentioning as escape.
			if lhsMentions(pass, p, obj) {
				return nil // swap idiom: w, cand = cand, w
			}
			if lv, rv := pairedSides(p, prev); lv != nil {
				if isViewBinding(pass, id, rv, lv) {
					// bp := buf[a:b] — a local view over the buffer. The
					// release obligation on the original binding stands, so
					// this is not an ownership transfer. (The view itself is
					// not tracked further: documented conservatism.)
					return nil
				}
				return &escapeResult{node: id, desc: "assigned to " + types.ExprString(lv)}
			}
			return &escapeResult{node: id, desc: "aliased by assignment"}
		case *ast.ValueSpec:
			if insideCallArgs {
				return nil
			}
			return &escapeResult{node: id, desc: "aliased by declaration"}
		case *ast.ReturnStmt:
			if insideCallArgs {
				return nil
			}
			return &escapeResult{node: id, desc: "returned to the caller"}
		case *ast.SendStmt:
			if insideCallArgs || prev == p.Chan {
				return nil
			}
			return &escapeResult{node: id, desc: "sent on a channel"}
		case ast.Stmt:
			return nil // any other statement: plain use
		}
		prev = n
	}
	return nil
}

// pairedSides returns the LHS/RHS pair positionally matching the RHS
// expression containing the use, or nils when the pairing is ambiguous.
func pairedSides(a *ast.AssignStmt, within ast.Node) (lhs, rhs ast.Expr) {
	if len(a.Lhs) != len(a.Rhs) {
		return nil, nil
	}
	for i, r := range a.Rhs {
		if containsNode(r, within) {
			return a.Lhs[i], r
		}
	}
	return nil, nil
}

// isViewBinding reports whether rv is a pure slice-expression view over the
// used identifier (buf[a:b], possibly chained) bound to a function-local
// identifier.
func isViewBinding(pass *Pass, id *ast.Ident, rv, lv ast.Expr) bool {
	lid, ok := ast.Unparen(lv).(*ast.Ident)
	if !ok {
		return false
	}
	var lobj types.Object
	if lid.Name == "_" {
		lobj = nil
	} else if o := pass.Info.Defs[lid]; o != nil {
		lobj = o
	} else {
		lobj = pass.Info.Uses[lid]
	}
	if v, isVar := lobj.(*types.Var); isVar && (v.IsField() || v.Parent() == pass.Types.Scope()) {
		return false // view parked in a field or package-level var: escape
	}
	e := ast.Unparen(rv)
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			break
		}
		e = ast.Unparen(se.X)
	}
	return e == id
}

func lhsMentions(pass *Pass, a *ast.AssignStmt, obj types.Object) bool {
	for _, l := range a.Lhs {
		if containsIdentOf(pass.Info, l, obj) {
			return true
		}
	}
	return false
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// buildParents maps every node under root to its syntactic parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
