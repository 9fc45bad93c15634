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

	"dmml/internal/vet"
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
// Makefile. Every flag of a `<binary> -flag ...` command line — in a
// backticked span, or on a line of a fenced block — must be one the
// binary's package under cmd/ declares (see binaryFlags).
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

	flags := binaryFlags(t, m)

	cited, citedTargets, citedFlags := 0, 0, 0
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
			spans := []string{line}
			if !fenced {
				spans = spans[:0]
				for _, c := range spanRe.FindAllStringSubmatch(line, -1) {
					spans = append(spans, c[1])
				}
			}
			for _, span := range spans {
				for _, inv := range flagUses(span) {
					citedFlags++
					if !flags[inv[0]][inv[1]] {
						t.Errorf("%s:%d: %s -%s names no flag that cmd/%s declares", doc, i+1, inv[0], inv[1], inv[0])
					}
				}
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
	if citedFlags == 0 {
		t.Fatal("no binary flag found in the documents; the flag check is vacuous")
	}
}

// binaries are the commands under cmd/ whose flags the documents cite.
var binaries = []string{"dmml", "dmmlbench", "dmmlserve", "loadtest", "dmmlvet"}

var (
	// spanRe matches a backticked span; the group is its content.
	spanRe = regexp.MustCompile("`([^`]+)`")
	// invokeRe matches a binary's name as a whole command word — at the
	// start, or after a space or a path's slash — and the words that follow it up to
	// the end of the command (a pipe, a list separator, a redirection or a
	// comment).
	invokeRe = regexp.MustCompile(`(?:^|[\s/])(` + strings.Join(binaries, "|") + `)\b((?:[ \t]+[^\s|;&#>]+)*)`)
	// flagRe matches a word that is a flag: -name or --name, with or without
	// =value; the group is the name.
	flagRe = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=.*)?$`)
	// quotedRe matches a quoted shell word, whose dashes are no flags.
	quotedRe = regexp.MustCompile(`'[^']*'|"[^"]*"`)
)

// flagUses returns the {binary, flag} pairs of every command line in text.
func flagUses(text string) [][2]string {
	var out [][2]string
	for _, c := range invokeRe.FindAllStringSubmatch(quotedRe.ReplaceAllString(text, "''"), -1) {
		for _, word := range strings.Fields(c[2]) {
			if f := flagRe.FindStringSubmatch(word); f != nil {
				out = append(out, [2]string{c[1], f[1]})
			}
		}
	}
	return out
}

// binaryFlags returns, per binary, the flags its package under cmd/
// declares: the name argument of every flag-defining call of package flag,
// on the default set (flag.Bool, flag.StringVar, ...) or on a *flag.FlagSet
// (fs.Bool, fs.Var, ...), plus the -h and -help every flag set accepts.
func binaryFlags(t *testing.T, m *vet.Module) map[string]map[string]bool {
	t.Helper()
	out := make(map[string]map[string]bool)
	for _, bin := range binaries {
		p := m.Pkgs[m.Path+"/cmd/"+bin]
		if p == nil {
			t.Fatalf("no package cmd/%s", bin)
		}
		names := map[string]bool{"h": true, "help": true}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !definesFlag(fn.Name()) {
					return true
				}
				for _, a := range call.Args {
					if tv := p.Info.Types[a]; tv.Value != nil && tv.Value.Kind() == constant.String {
						names[constant.StringVal(tv.Value)] = true
						break
					}
				}
				return true
			})
		}
		if len(names) == 2 {
			t.Fatalf("cmd/%s declares no flag; the flag check is vacuous", bin)
		}
		out[bin] = names
	}
	return out
}

// definesFlag reports whether the package-flag function or *flag.FlagSet
// method name defines a flag; its first string constant argument is the
// flag's name.
func definesFlag(name string) bool {
	switch name {
	case "Var", "Func", "BoolFunc", "TextVar":
		return true
	}
	for _, kind := range []string{"Bool", "String", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration"} {
		if name == kind || name == kind+"Var" {
			return true
		}
	}
	return false
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
