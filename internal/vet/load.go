package vet

// Package loading for the analyzer suite. dmmlvet must stay dependency-free
// (stdlib only, buildable offline), so instead of golang.org/x/tools/go/packages
// we load the module ourselves: walk the tree for Go packages, parse them with
// go/parser, topologically sort by module-internal imports, and type-check each
// package with go/types. Imports of module-internal paths resolve to the
// packages we just checked; stdlib imports resolve through the "source"
// importer, which compiles $GOROOT/src from source and needs no pre-built
// export data or network.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // full import path, e.g. "dmml/internal/la"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded module: every package, fully type-checked, sharing one
// FileSet.
type Module struct {
	Path string // module path from go.mod
	Root string // absolute directory containing go.mod
	Fset *token.FileSet
	Pkgs map[string]*Package // by import path

	imp *moduleImporter // reused by the tests' package loaders so stdlib is checked once
}

// FindModuleRoot walks upward from dir looking for go.mod and returns the
// directory containing it plus the declared module path.
func FindModuleRoot(dir string) (root, modpath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					mp := strings.TrimSpace(rest)
					if unq, err := strconv.Unquote(mp); err == nil {
						mp = unq
					}
					return dir, mp, nil
				}
			}
			return "", "", fmt.Errorf("%s: no module directive", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}

// discoverDirs returns every directory under root that holds at least one
// non-test .go file, skipping testdata, hidden, and underscore directories.
func discoverDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of one directory contiguously, but be safe: dedupe.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// parseDir parses the non-test Go files of one directory that the host's
// build would compile (file-name suffixes and //go:build lines, as go/build
// reads them, so an _amd64 file and its !amd64 twin never meet), with
// comments (the analyzers read //dmml: directives).
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter resolves module-internal import paths to already-checked
// packages and delegates everything else to the stdlib source importer.
type moduleImporter struct {
	modpath string
	pkgs    map[string]*types.Package
	std     types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == mi.modpath || strings.HasPrefix(path, mi.modpath+"/") {
		if p, ok := mi.pkgs[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("module package %s not loaded (import cycle or load order bug)", path)
	}
	return mi.std.Import(path)
}

// newInfo returns a types.Info with every map the analyzers need populated.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load parses and type-checks every package of the module rooted at (or
// above) dir. Type errors in the tree are returned as a single joined error;
// a partially usable Module is still returned so callers can decide.
func Load(dir string) (*Module, error) {
	root, modpath, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := discoverDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports []string // module-internal imports only
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, d := range dirs {
		files, err := parseDir(fset, d)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := modpath
		if rel != "." {
			path = modpath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: path, dir: d, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == modpath || strings.HasPrefix(ip, modpath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		byPath[path] = p
		order = append(order, path)
	}

	// Topological sort over module-internal imports (DFS, cycle-detecting).
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int)
	var topo []string
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok {
			return nil // unresolved internal import; type check will report it
		}
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", path)
		}
		state[path] = visiting
		for _, ip := range p.imports {
			if err := visit(ip); err != nil {
				return err
			}
		}
		state[path] = done
		topo = append(topo, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	mod := &Module{Path: modpath, Root: root, Fset: fset, Pkgs: make(map[string]*Package)}
	imp := &moduleImporter{
		modpath: modpath,
		pkgs:    make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var typeErrs []string
	for _, path := range topo {
		p := byPath[path]
		info := newInfo()
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		tpkg, _ := conf.Check(path, fset, p.files, info)
		imp.pkgs[path] = tpkg
		mod.Pkgs[path] = &Package{
			Path:  path,
			Dir:   p.dir,
			Fset:  fset,
			Files: p.files,
			Types: tpkg,
			Info:  info,
		}
	}
	mod.imp = imp
	if len(typeErrs) > 0 {
		return mod, fmt.Errorf("type errors while loading module:\n  %s", strings.Join(typeErrs, "\n  "))
	}
	return mod, nil
}
