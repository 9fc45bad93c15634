package vet_test

import (
	"encoding/json"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// makeRe matches a make command in a backticked span, and makeLineRe one
// that starts a line of a fenced code block; the group is the target.
var (
	makeRe     = regexp.MustCompile("`make ([a-z][a-z0-9-]*)[^`]*`")
	makeLineRe = regexp.MustCompile(`^\s*make ([a-z][a-z0-9-]*)`)
	// targetRe matches a rule's target at the start of a Makefile line
	// (not a := or ?= assignment).
	targetRe = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*)\s*:(?:[^=]|$)`)
)

// citeRe matches a whole backticked span that cites an identifier:
// `pkg.Name`, `(*pkg.T)` or `(*pkg.T).M`.
var citeRe = regexp.MustCompile("`(?:([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)|\\(\\*([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)\\)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?)`")

// TestDocsCiteLiveNames: the repository's documents name engine code, and a
// deleted or renamed identifier must not live on in them. Every backticked
// `pkg.Name`, `(*pkg.T)` and `(*pkg.T).M` in README.md, DESIGN.md and
// EXPERIMENTS.md whose pkg is a package under internal/ must resolve to a
// declaration of that package (Name at package scope; T a type; M a field
// or method of *T), to a metric name a metrics.New* call in non-test code
// registers, or to a per-layer metric name of BENCHMARK.json. Fenced code
// blocks are not scanned for those. Every `make <target>` — in a backticked
// span, or starting a line of a fenced block — must name a rule of the
// Makefile.
func TestDocsCiteLiveNames(t *testing.T) {
	m := loadModule(t)
	pkgs := make(map[string]*types.Package) // internal/ packages by name
	metricNames := make(map[string]bool)
	for path, p := range m.Pkgs {
		if rel, ok := strings.CutPrefix(path, m.Path+"/internal/"); ok && !strings.Contains(rel, "/") {
			pkgs[p.Types.Name()] = p.Types
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := registeredMetric(p.Info, n); ok {
					metricNames[name] = true
				}
				return true
			})
		}
	}
	if len(metricNames) == 0 {
		t.Fatal("no metrics.New* registration found; the metric-name check is vacuous")
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(m.Root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, l := range bench.PerLayer {
		metricNames[l.Name] = true
	}

	makefile, err := os.ReadFile(filepath.Join(m.Root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, c := range targetRe.FindAllStringSubmatch(string(makefile), -1) {
		targets[c[1]] = true
	}

	cited, citedTargets := 0, 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(m.Root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			re := makeRe
			if fenced {
				re = makeLineRe
			}
			for _, c := range re.FindAllStringSubmatch(line, -1) {
				citedTargets++
				if !targets[c[1]] {
					t.Errorf("%s:%d: make %s names no rule of the Makefile", doc, i+1, c[1])
				}
			}
			if fenced {
				continue
			}
			for _, c := range citeRe.FindAllStringSubmatch(line, -1) {
				pkgName, name, method := c[1], c[2], ""
				if pkgName == "" {
					pkgName, name, method = c[3], c[4], c[5]
				}
				pkg := pkgs[pkgName]
				if pkg == nil {
					continue
				}
				cited++
				if !resolves(pkg, name, method, c[3] != "") && !(c[1] != "" && metricNames[c[0][1:len(c[0])-1]]) {
					t.Errorf("%s:%d: %s names no declaration of internal/%s and no registered metric", doc, i+1, c[0], pkgName)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no citation of an internal/ package found; the test is vacuous")
	}
	if citedTargets == 0 {
		t.Fatal("no make command found in the documents; the target check is vacuous")
	}
}

// resolves reports whether pkg declares name at package scope — as a type
// when pointer is set, and then with method, if any, a field or method of
// *name.
func resolves(pkg *types.Package, name, method string, pointer bool) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return false
	}
	if !pointer {
		return true
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	if method == "" {
		return true
	}
	sel, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, method)
	return sel != nil
}

// registeredMetric returns the name n registers when n is a call of a
// metrics.New* constructor with a constant string first argument.
func registeredMetric(info *types.Info, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return "", false
	}
	f, ok := info.Uses[id].(*types.Func)
	if !ok || f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), "/internal/metrics") || !strings.HasPrefix(f.Name(), "New") {
		return "", false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
