package vet

// errpanic keeps failure a value in the engine: no panic in an internal/
// package may carry an error, i.e. have a subexpression whose type
// implements error (panic(err), panic(fmt.Sprintf("…: %v", err)),
// panic(fmt.Errorf(…))). Such a failure is one an exported path should have
// returned. A panic that states a violated precondition (a shape mismatch)
// names a caller bug and stays legal.

import (
	"go/ast"
	"go/types"
	"strings"
)

var AnalyzerErrPanic = &Analyzer{
	Name: "errpanic",
	Doc:  "no panic in internal/ whose argument derives from an error value",
	Run:  runErrPanic,
}

func runErrPanic(pass *Pass) {
	if path := pass.Types.Path(); strings.HasPrefix(path, "dmml/") && !strings.HasPrefix(path, "dmml/internal/") {
		return
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || pass.Info.Uses[id] != types.Universe.Lookup("panic") {
				return true
			}
			var from ast.Expr
			ast.Inspect(call.Args[0], func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok && from == nil {
					if tv, ok := pass.Info.Types[e]; ok && !tv.IsType() && !tv.IsNil() && types.Implements(tv.Type, errType) {
						from = e
					}
				}
				return from == nil
			})
			if from != nil {
				pass.Reportf(call.Pos(), "panic argument derives from error value %s; return the error instead", types.ExprString(from))
			}
			return true
		})
	}
}
