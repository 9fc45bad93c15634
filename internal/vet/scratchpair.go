package vet

// scratchpair proves the pooled-scratch invariant from PR 2: every buffer
// taken from the typed scratch allocator (pool.GetF64 / pool.GetF64Zeroed)
// reaches pool.PutF64 on every exit path of the acquiring function — via a
// defer or a release dominating each return — unless the function is
// annotated //dmml:owns-scratch because the buffer intentionally outlives
// the call (returned to the caller, parked in a struct). A leaked scratch
// buffer is invisible to correctness tests: the engine just quietly falls
// back to allocating, which is exactly the steady-state garbage the
// allocator exists to remove.

import (
	"go/ast"
	"go/token"
	"go/types"
)

const poolPkgPath = "dmml/internal/pool"

var AnalyzerScratchPair = &Analyzer{
	Name: "scratchpair",
	Doc:  "pool.GetF64/GetF64Zeroed buffers must reach pool.PutF64 on all paths (annotate //dmml:owns-scratch for intentional escapes)",
	Run:  runScratchPair,
}

func isScratchAcquire(info *types.Info, call *ast.CallExpr) bool {
	return isPkgFunc(info, call, poolPkgPath, "GetF64") || isPkgFunc(info, call, poolPkgPath, "GetF64Zeroed") ||
		isPkgFunc(info, call, poolPkgPath, "GetInt")
}

// scratchReleaseName maps an acquire call to the release function that pairs
// with it: GetInt buffers go back through PutInt, float buffers through
// PutF64. Releasing through the wrong twin silently drops the buffer, so the
// proof demands the matching one.
func scratchReleaseName(info *types.Info, acquire *ast.CallExpr) string {
	if isPkgFunc(info, acquire, poolPkgPath, "GetInt") {
		return "PutInt"
	}
	return "PutF64"
}

func runScratchPair(pass *Pass) {
	if pass.Types.Path() == poolPkgPath {
		return // the allocator's own implementation
	}
	isAcquire := func(call *ast.CallExpr) bool { return isScratchAcquire(pass.Info, call) }

	forEachFuncContext(pass.Package, func(fc funcContext) {
		if funcDirectives(fc.decl)["owns-scratch"] {
			return
		}
		for _, b := range findAcquires(pass, fc.body, isAcquire, 0) {
			switch {
			case b.discarded:
				pass.Reportf(b.call.Pos(), "scratch buffer from %s is discarded; it can never be released", calleeName(pass, b.call))
			case b.storedAtBirth:
				pass.Reportf(b.call.Pos(), "scratch buffer from %s is stored outside the function at acquisition; annotate the function //dmml:owns-scratch if ownership transfers", calleeName(pass, b.call))
			case b.naked:
				pass.Reportf(b.call.Pos(), "scratch buffer from %s has no local binding; bind it so it can be released, or annotate //dmml:owns-scratch", calleeName(pass, b.call))
			case b.obj == nil:
				// Unresolvable binding (type error); nothing to prove.
			default:
				checkScratchObj(pass, fc, b)
			}
		}
	})
}

func checkScratchObj(pass *Pass, fc funcContext, b acquireBinding) {
	obj := b.obj
	if esc := findEscape(pass, fc.body, obj, b.call); esc != nil {
		pass.Reportf(b.call.Pos(), "scratch buffer %q escapes (%s) without //dmml:owns-scratch on %s", obj.Name(), esc.desc, fc.decl.Name.Name)
		return
	}
	release := scratchReleaseName(pass.Info, b.call)
	t := &pairTracker{
		acquireStmt: b.stmt,
		isRelease: func(call *ast.CallExpr) bool {
			return isPkgFunc(pass.Info, call, poolPkgPath, release) &&
				len(call.Args) == 1 && containsIdentOf(pass.Info, call.Args[0], obj)
		},
		// Only a result that IS the buffer (possibly resliced) transfers
		// ownership — and findEscape has already flagged that as an escape,
		// so this is belt-and-suspenders. A result merely mentioning the
		// buffer (return buf[0]) is a borrow; the leak must still fire.
		returnsResource: func(ret *ast.ReturnStmt) bool {
			for _, r := range ret.Results {
				if isResourceExpr(pass.Info, r, obj) {
					return true
				}
			}
			return false
		},
		leak: func(pos token.Pos, where string) {
			pass.Reportf(pos, "scratch buffer %q (acquired at %s) is not released on %s; add pool.%s on this path or defer it", obj.Name(), pass.Fset.Position(b.call.Pos()), where, release)
		},
	}
	t.check(fc.body)
}

func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass.Info, call); fn != nil {
		return "pool." + fn.Name()
	}
	return "the scratch pool"
}
