package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// LoadTestPackage parses and type-checks a single out-of-tree package (an
// analyzer golden testdata package) against an already-loaded module, so the
// testdata can import real engine packages like dmml/internal/pool.
func LoadTestPackage(mod *Module, dir, path string) (*Package, error) {
	files, err := parseDir(mod.Fset, dir)
	if err != nil {
		return nil, err
	}
	return checkFiles(mod, dir, path, files)
}

// LoadWithTests type-checks the package in dir together with its in-package
// _test.go files against the loaded module, so the reachability test can
// count what a package's tests reference (the benchmark's tests are roots).
// External test files (package x_test) are skipped.
func LoadWithTests(mod *Module, dir, path string) (*Package, error) {
	files, err := parseDir(mod.Fset, dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(mod.Fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if len(files) > 0 && f.Name.Name != files[0].Name.Name {
			continue
		}
		files = append(files, f)
	}
	return checkFiles(mod, dir, path, files)
}

func checkFiles(mod *Module, dir, path string, files []*ast.File) (*Package, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := newInfo()
	var typeErrs []string
	conf := types.Config{
		Importer: mod.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	tpkg, _ := conf.Check(path, mod.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors in %s:\n  %s", dir, strings.Join(typeErrs, "\n  "))
	}
	return &Package{Path: path, Dir: dir, Fset: mod.Fset, Files: files, Types: tpkg, Info: info}, nil
}
