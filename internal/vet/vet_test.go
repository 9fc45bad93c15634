package vet_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dmml/internal/vet"
)

// The module is loaded once per test binary: type-checking the whole tree
// (plus the stdlib, from source) dominates the cost of every test here.
var (
	modOnce sync.Once
	mod     *vet.Module
	modErr  error
)

func loadModule(t *testing.T) *vet.Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = vet.Load(".") })
	if modErr != nil {
		t.Fatalf("loading module: %v", modErr)
	}
	return mod
}

// expectation is one want comment in a testdata file: "// want" followed
// by a backquoted regexp.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// parseExpectations scans the non-test Go files of dir for want comments.
func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out []*expectation
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
			}
			out = append(out, &expectation{file: name, line: i + 1, re: re, raw: m[1]})
		}
	}
	if len(out) == 0 {
		t.Fatalf("no want expectations found in %s", dir)
	}
	return out
}

// TestGoldenAnalyzers runs each analyzer over its seeded testdata package and
// matches the findings against the `// want` expectations: every expectation
// must be hit (the analyzer demonstrably catches the seeded bug) and every
// finding must be expected (the guards demonstrate zero false positives).
func TestGoldenAnalyzers(t *testing.T) {
	m := loadModule(t)
	for _, a := range vet.Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			// The package path is deliberately outside the module namespace:
			// analyzers that scope per-package behavior (lockdiscipline's
			// pairing proof) treat out-of-module testdata as in scope.
			pkg, err := vet.LoadTestPackage(m, dir, a.Name)
			if err != nil {
				t.Fatalf("loading testdata: %v", err)
			}
			expects := parseExpectations(t, dir)
			findings := vet.Run(m, []*vet.Package{pkg}, []*vet.Analyzer{a})
			for _, f := range findings {
				base := filepath.Base(f.Pos.Filename)
				matched := false
				for _, e := range expects {
					if !e.hit && e.file == base && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
						e.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, e := range expects {
				if !e.hit {
					t.Errorf("%s:%d: expected finding matching `%s`, got none", e.file, e.line, e.raw)
				}
			}
		})
	}
}

// TestEngineTreeClean proves the invariant the CI gate relies on: the full
// analyzer suite over the annotated engine tree reports nothing.
func TestEngineTreeClean(t *testing.T) {
	m := loadModule(t)
	var pkgs []*vet.Package
	for _, p := range m.Pkgs {
		pkgs = append(pkgs, p)
	}
	for _, f := range vet.Run(m, pkgs, vet.Analyzers) {
		t.Errorf("engine tree finding: %s", f)
	}
}

// TestAnalyzerMetadata keeps the suite's registry well-formed: unique names
// (they key -only selection and testdata layout) and non-empty docs.
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range vet.Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v: incomplete metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
