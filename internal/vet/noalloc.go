package vet

// noalloc is the static twin of the AllocsPerRun==0 pins: a function
// annotated //dmml:noalloc must not contain allocating constructs, and
// neither may anything it statically calls inside the module. Where the
// dynamic pin proves one exercised path allocation-free, this proves every
// path of every annotated kernel — including branches the benchmark never
// takes.
//
// Flagged constructs: make/new, append (except the capacity-reuse idiom
// append(s[:k], ...) onto an explicit reslice), map/slice composite
// literals, map writes, closures that capture variables, string
// concatenation and string<->[]byte/[]rune conversions, go statements,
// interface boxing of non-pointer values (call arguments and assignments),
// variadic calls that materialize their argument slice, print/println, and
// calls that cannot be proven allocation-free: dynamic calls through
// function values or interfaces, and calls into packages outside the
// audited set.
//
// Arguments of panic calls are exempt: a panicking path terminates the
// function, so allocating the diagnostic string there costs nothing at
// steady state — this keeps the engine's fmt.Sprintf length-check panics
// out of the audit without weakening the hot path.
//
// Calls are resolved transitively: a module-internal callee is either
// annotated //dmml:noalloc itself (checked on its own) or is recursively
// audited with the same rules. A callee declared without a body is
// implemented in assembly; it is a leaf the audit accepts only when its
// declaration carries //dmml:noalloc and its package has a .s file — an
// unannotated one stays a finding, as does one whose package has no
// assembly to implement it. Calls into dmml/internal/pool's scratch API
// and dmml/internal/metrics are allowed by fiat: both are engineered for
// zero steady-state allocations and carry their own AllocsPerRun pins.
// Allowed stdlib packages: math, math/bits, sync/atomic.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"strings"
)

var AnalyzerNoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "//dmml:noalloc functions (and their module-internal callees) must not contain allocating constructs",
	Run:  runNoAlloc,
}

var noallocAllowedStdPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// noallocAllowedFuncs are engine functions allowed by fiat (zero
// steady-state allocations by design, dynamically pinned).
var noallocAllowedFuncs = map[string]bool{
	poolPkgPath + ".GetF64":       true,
	poolPkgPath + ".GetF64Zeroed": true,
	poolPkgPath + ".PutF64":       true,
	poolPkgPath + ".GetInt":       true,
	poolPkgPath + ".PutInt":       true,
	poolPkgPath + ".Workers":      true,
	poolPkgPath + ".Parallel":     true,
}

// allocViolation is one allocating construct found during an audit.
type allocViolation struct {
	pos  token.Pos
	what string
}

// noallocAuditor memoizes transitive audits of unannotated callees.
type noallocAuditor struct {
	pass *Pass
	// declIndex maps a function object to its declaration; built lazily
	// over the current package plus every module package.
	declIndex map[*types.Func]auditTarget
	// verdict memoizes per-function audit results; nil slice = clean.
	// A function present with in-progress sentinel breaks recursion cycles.
	verdict    map[*types.Func][]allocViolation
	inProgress map[*types.Func]bool
}

// auditTarget is a function declaration plus the package whose type info
// resolves it.
type auditTarget struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func runNoAlloc(pass *Pass) {
	aud := &noallocAuditor{
		pass:       pass,
		verdict:    make(map[*types.Func][]allocViolation),
		inProgress: make(map[*types.Func]bool),
	}
	forEachFuncBody(pass.Package, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		if !funcDirectives(decl)["noalloc"] {
			return
		}
		for _, v := range aud.auditBody(pass.Package, decl) {
			pass.Reportf(v.pos, "%s in //dmml:noalloc flow of %s", v.what, decl.Name.Name)
		}
	})
}

// buildDeclIndex indexes every declared function of the current package and
// (when available) every module package, so calls resolve to bodies.
func (a *noallocAuditor) buildDeclIndex() {
	if a.declIndex != nil {
		return
	}
	a.declIndex = make(map[*types.Func]auditTarget)
	add := func(pkg *Package) {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					a.declIndex[fn] = auditTarget{pkg: pkg, decl: fd}
				}
			}
		}
	}
	add(a.pass.Package)
	if a.pass.Module != nil {
		for _, pkg := range a.pass.Module.Pkgs {
			if pkg != a.pass.Package {
				add(pkg)
			}
		}
	}
}

// auditBody returns the allocating constructs in decl's own body. For the
// root annotated function, callers report each violation; transitive
// callees summarize as a single violation at the call site.
func (a *noallocAuditor) auditBody(pkg *Package, decl *ast.FuncDecl) []allocViolation {
	var out []allocViolation
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, allocViolation{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	info := pkg.Info

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		// Arguments of a panic call are off the steady-state path: the
		// function is terminating, so allocating the diagnostic (fmt.Sprintf
		// in a length-check panic) is free. Skip the whole subtree.
		if call, ok := n.(*ast.CallExpr); ok {
			if id, okID := ast.Unparen(call.Fun).(*ast.Ident); okID {
				if b, okB := info.Uses[id].(*types.Builtin); okB && b.Name() == "panic" {
					return false
				}
			}
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement (spawns a goroutine)")

		case *ast.FuncLit:
			if capt := capturedVar(info, n, decl); capt != "" {
				report(n.Pos(), "closure captures variable %q (heap-allocates the closure)", capt)
			}

		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal")
			case *types.Slice:
				report(n.Pos(), "slice literal")
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				// tv.Value != nil means the concatenation folded to a
				// constant at compile time — no runtime allocation.
				if tv, ok := info.Types[n]; ok && tv.Type != nil && isStringType(tv.Type) && tv.Value == nil {
					report(n.Pos(), "string concatenation")
				}
			}

		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							report(l.Pos(), "map write (may grow the map)")
						}
					}
				}
			}
			a.checkBoxing(pkg, n, report)

		case *ast.CallExpr:
			a.checkCall(pkg, decl, n, report)
		}
		return true
	})
	return out
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVar returns the name of a variable the literal captures from its
// enclosing function, or "".
func capturedVar(info *types.Info, lit *ast.FuncLit, decl *ast.FuncDecl) string {
	capt := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if capt != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside the
		// literal.
		if v.Pos() >= decl.Pos() && v.Pos() <= decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			capt = v.Name()
			return false
		}
		return true
	})
	return capt
}

// checkBoxing flags assignments that convert a non-pointer concrete value
// to an interface type.
func (a *noallocAuditor) checkBoxing(pkg *Package, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	// := infers the concrete type, so only plain assignments can box.
	if as.Tok == token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		lt, ok := pkg.Info.Types[l]
		if !ok || lt.Type == nil {
			continue
		}
		rt, okR := pkg.Info.Types[as.Rhs[i]]
		if !okR || rt.Type == nil {
			continue
		}
		if boxes(lt.Type, rt.Type) {
			report(as.Rhs[i].Pos(), "interface boxing of non-pointer value (%s -> %s)", lockTypeName(rt.Type), lockTypeName(lt.Type))
		}
	}
}

// boxes reports whether storing a value of type from into a location of
// type to heap-boxes it: to is an interface, from is a concrete
// non-pointer type.
func boxes(to, from types.Type) bool {
	if _, isIface := to.Underlying().(*types.Interface); !isIface {
		return false
	}
	if from == nil {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// checkCall audits one call inside a noalloc flow.
func (a *noallocAuditor) checkCall(pkg *Package, decl *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	info := pkg.Info

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			src, okSrc := info.Types[call.Args[0]]
			if okSrc && src.Type != nil {
				toStr, fromStr := isStringType(tv.Type), isStringType(src.Type)
				_, toSlice := tv.Type.Underlying().(*types.Slice)
				_, fromSlice := src.Type.Underlying().(*types.Slice)
				if (toStr && fromSlice) || (fromStr && toSlice) {
					report(call.Pos(), "string <-> slice conversion")
				}
				if boxes(tv.Type, src.Type) {
					report(call.Pos(), "conversion boxes value into interface %s", lockTypeName(tv.Type))
				}
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			case "append":
				// append(s[:k], ...) onto an explicit reslice reuses
				// capacity; any other append may grow.
				if len(call.Args) == 0 {
					return
				}
				if _, reslice := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reslice {
					report(call.Pos(), "append (may grow the backing array)")
				}
			case "print", "println":
				report(call.Pos(), "%s (allocates its arguments)", b.Name())
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		// Indirect call through a function value or interface method.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, okSel := info.Selections[sel]; okSel && s.Kind() == types.MethodVal {
				report(call.Pos(), "dynamic method call %s (cannot be proven allocation-free)", types.ExprString(call.Fun))
				return
			}
		}
		report(call.Pos(), "dynamic call through a function value (cannot be proven allocation-free)")
		return
	}
	// Interface method calls resolve to a *types.Func whose receiver is the
	// interface: still dynamic.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			report(call.Pos(), "interface method call %s.%s (cannot be proven allocation-free)", lockTypeName(sig.Recv().Type()), fn.Name())
			return
		}
	}

	fullName := ""
	if fn.Pkg() != nil {
		fullName = fn.Pkg().Path() + "." + fn.Name()
	}

	// Variadic calls materialize their argument slice.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() &&
		!call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		report(call.Pos(), "variadic call to %s materializes its argument slice", fn.Name())
		return
	}

	// Interface boxing at the call boundary.
	if sig, ok := fn.Type().(*types.Signature); ok && !sig.Variadic() {
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			at, okA := info.Types[call.Args[i]]
			if okA && at.Type != nil && boxes(sig.Params().At(i).Type(), at.Type) {
				report(call.Args[i].Pos(), "argument %d of %s boxes a non-pointer value into an interface", i+1, fn.Name())
			}
		}
	}

	if fn.Pkg() == nil {
		return // error.Error etc. on universe scope
	}
	pkgPath := fn.Pkg().Path()
	switch {
	case noallocAllowedFuncs[fullName]:
		return
	case pkgPath == metricsPkgPath:
		return // instruments are engineered zero-alloc and pinned dynamically
	case a.isModulePath(pkgPath):
		a.auditCallee(fn, call, report)
	case noallocAllowedStdPkgs[pkgPath]:
		return
	default:
		report(call.Pos(), "call to %s.%s, outside the audited set (not provably allocation-free)", pkgPath, fn.Name())
	}
}

func (a *noallocAuditor) isModulePath(path string) bool {
	if path == a.pass.Types.Path() {
		return true // same package as the annotated root: always auditable
	}
	if a.pass.Module != nil {
		return path == a.pass.Module.Path || strings.HasPrefix(path, a.pass.Module.Path+"/")
	}
	return strings.HasPrefix(path, "dmml/")
}

// auditCallee transitively audits a module-internal callee that is not
// itself annotated, reporting a single summarized violation at the call
// site.
func (a *noallocAuditor) auditCallee(fn *types.Func, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	a.buildDeclIndex()
	target, ok := a.declIndex[fn]
	if !ok {
		// Same-package functions resolve via the test package's own index;
		// anything else unresolvable is suspicious.
		report(call.Pos(), "call to %s whose body is not available for audit", fn.Name())
		return
	}
	if target.decl.Body == nil {
		switch {
		case !funcDirectives(target.decl)["noalloc"]:
			report(call.Pos(), "call to %s whose body is not available for audit", fn.Name())
		case !hasAsm(target.pkg.Dir):
			report(call.Pos(), "call to body-less %s, whose package has no assembly file", fn.Name())
		}
		return // an annotated assembly leaf
	}
	if funcDirectives(target.decl)["noalloc"] {
		return // annotated: audited at its own declaration
	}
	if a.inProgress[fn] {
		return // recursion cycle: judged by the rest of its body
	}
	if vs, seen := a.verdict[fn]; seen {
		a.reportCalleeViolations(fn, call, vs, report)
		return
	}
	a.inProgress[fn] = true
	vs := a.auditBody(target.pkg, target.decl)
	a.inProgress[fn] = false
	a.verdict[fn] = vs
	a.reportCalleeViolations(fn, call, vs, report)
}

func (a *noallocAuditor) reportCalleeViolations(fn *types.Func, call *ast.CallExpr, vs []allocViolation, report func(token.Pos, string, ...any)) {
	if len(vs) == 0 {
		return
	}
	v := vs[0]
	report(call.Pos(), "calls %s, which allocates: %s at %s", fn.Name(), v.what, a.pass.Fset.Position(v.pos))
}

// hasAsm reports whether dir holds an assembly (.s) file the host's build
// assembles.
func hasAsm(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if ok, err := build.Default.MatchFile(dir, e.Name()); err == nil && ok && strings.HasSuffix(e.Name(), ".s") {
			return true
		}
	}
	return false
}
