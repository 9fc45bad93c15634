package vet

// spanpair proves the observability pairing invariant from PR 4: a metrics
// span that is opened must be ended, and a stopwatch that is started must be
// stopped, on every exit path. An unpaired span corrupts the parent/child
// self-time accounting (the pooled span struct is never recycled and the
// parent keeps accumulating child time), and an unstopped stopwatch silently
// drops the observation — both invisible to tests unless the exact path is
// timed. Tracked acquisitions:
//
//	ctx, end := metrics.Span(ctx, name)   =>   end() / defer end()
//	sw := timer.Start()                   =>   sw.Stop() / defer sw.Stop()
//
// A span-end function or stopwatch that demonstrably leaves the function
// (returned, stored, passed on) is skipped: ownership transferred, and the
// callee/caller contract is beyond a per-function proof.

import (
	"go/ast"
	"go/token"
	"go/types"
)

const metricsPkgPath = "dmml/internal/metrics"

var AnalyzerSpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "metrics.Span end funcs and Timer.Start stopwatches must be called/stopped on all paths",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) {
	if pass.Types.Path() == metricsPkgPath {
		return
	}
	isSpan := func(call *ast.CallExpr) bool {
		return isPkgFunc(pass.Info, call, metricsPkgPath, "Span")
	}
	isStart := func(call *ast.CallExpr) bool {
		fn := calleeFunc(pass.Info, call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == metricsPkgPath &&
			fn.Name() == "Start" && fn.Type().(*types.Signature).Recv() != nil
	}

	forEachFuncContext(pass.Package, func(fc funcContext) {
		for _, b := range findAcquires(pass, fc.body, isSpan, 1) {
			switch {
			case b.discarded:
				pass.Reportf(b.call.Pos(), "span end function is discarded; the span can never be ended")
			case b.storedAtBirth, b.naked:
				// Ownership transferred somewhere we can't follow; skip.
			case b.obj != nil:
				checkPaired(pass, fc, b, func(call *ast.CallExpr) bool {
					// end() — calling the bound function value.
					id, ok := ast.Unparen(call.Fun).(*ast.Ident)
					return ok && pass.Info.Uses[id] == b.obj
				}, "metrics span end %q is not called on %s; call it on this path or defer it")
			}
		}
		for _, b := range findAcquires(pass, fc.body, isStart, 0) {
			switch {
			case b.discarded:
				pass.Reportf(b.call.Pos(), "stopwatch from Timer.Start is discarded; the observation can never be recorded")
			case b.storedAtBirth, b.naked:
				// Stopwatch handed off (stored in a struct, passed along); skip.
			case b.obj != nil:
				checkPaired(pass, fc, b, func(call *ast.CallExpr) bool {
					// sw.Stop() — method call on the bound stopwatch.
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Stop" {
						return false
					}
					id, ok := ast.Unparen(sel.X).(*ast.Ident)
					return ok && pass.Info.Uses[id] == b.obj
				}, "stopwatch %q is not stopped on %s; call Stop on this path or defer it")
			}
		}
	})
}

// checkPaired runs the escape scan and the all-paths release proof for one
// bound span/stopwatch resource.
func checkPaired(pass *Pass, fc funcContext, b acquireBinding, isRelease func(*ast.CallExpr) bool, msg string) {
	obj := b.obj
	if esc := findEscape(pass, fc.body, obj, b.call); esc != nil {
		return // ownership left the function; not provable here
	}
	t := &pairTracker{
		acquireStmt: b.stmt,
		isRelease:   isRelease,
		// Only a result that IS the span-end func / stopwatch transfers
		// ownership; a result merely mentioning it does not end the span.
		returnsResource: func(ret *ast.ReturnStmt) bool {
			for _, r := range ret.Results {
				if isResourceExpr(pass.Info, r, obj) {
					return true
				}
			}
			return false
		},
		leak: func(pos token.Pos, where string) {
			pass.Reportf(pos, msg, obj.Name(), where)
		},
	}
	t.check(fc.body)
}
