// Package vet is dmml's engine-specific static-analysis framework. The
// engine's performance story rests on a handful of resource invariants —
// pooled scratch buffers are returned, metric spans are closed, instruments
// are registered once, annotated hot kernels stay allocation-free, lock
// regions are balanced — that until now were enforced only dynamically
// (AllocsPerRun pins, race runs). This package proves them at build time:
// every package of the module is parsed and type-checked (stdlib go/ast +
// go/types only; the module stays dependency-free and buildable offline),
// then a set of analyzers walks the typed ASTs and reports violations as
// file:line:col diagnostics. cmd/dmmlvet is the CLI and CI gate.
//
// Annotation vocabulary (function doc-comment directives):
//
//	//dmml:owns-scratch  the function intentionally lets a pool.GetF64
//	                     buffer escape (returns it, stores it in a struct);
//	                     ownership — and the PutF64 obligation — transfers
//	                     to the caller, so scratchpair does not track it.
//	//dmml:noalloc       the function is a hot kernel that must not contain
//	                     allocating constructs, and neither may anything it
//	                     statically calls inside the module. The static twin
//	                     of an AllocsPerRun==0 pin.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	*Package
	Analyzer *Analyzer
	// Module gives analyzers that follow calls across package boundaries
	// (noalloc) access to every loaded package. Nil for single-package runs
	// that don't need it.
	Module   *Module
	findings *[]Finding
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	AnalyzerScratchPair,
	AnalyzerSpanPair,
	AnalyzerInstrumentInit,
	AnalyzerNoAlloc,
	AnalyzerLockDiscipline,
	AnalyzerErrPanic,
}

// Run executes the given analyzers over the given packages of mod and
// returns all findings sorted by position.
func Run(mod *Module, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Package: pkg, Analyzer: a, Module: mod, findings: &findings}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// ---- directive helpers ----

// funcDirectives returns the set of //dmml: directives in a function's doc
// comment, e.g. {"noalloc": true}.
func funcDirectives(fd *ast.FuncDecl) map[string]bool {
	return commentDirectives(fd.Doc)
}

func commentDirectives(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var dirs map[string]bool
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//dmml:"); ok {
			name := strings.TrimSpace(rest)
			if name != "" {
				if dirs == nil {
					dirs = make(map[string]bool)
				}
				dirs[name] = true
			}
		}
	}
	return dirs
}

// ---- type/call resolution helpers shared by the analyzers ----

// calleeFunc resolves the static callee of call, following identifiers and
// selector expressions to the *types.Func. Returns nil for indirect calls
// (function values), built-ins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether call statically invokes a function named name
// from the package whose import path is pkgpath.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgpath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgpath && fn.Name() == name
}

// containsIdentOf reports whether expr mentions an identifier resolving to obj.
func containsIdentOf(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isResourceExpr reports whether expr evaluates to the resource value itself
// — the bare identifier, possibly parenthesized or resliced. An expression
// that merely mentions the resource (an element read like buf[0], a call
// borrowing it) is NOT the resource: returning such a value does not
// transfer ownership, so the release obligation stands.
func isResourceExpr(info *types.Info, expr ast.Expr, obj types.Object) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return info.Uses[e] == obj
		case *ast.SliceExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// forEachFuncBody invokes fn for every function body in the package: declared
// functions and methods (with their FuncDecl) and every function literal
// (with the enclosing declaration, for directive lookup).
func forEachFuncBody(pkg *Package, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd, fd.Body)
		}
	}
}
