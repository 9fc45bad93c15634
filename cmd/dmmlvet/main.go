// Command dmmlvet runs the engine-specific static-analysis suite over the
// module and reports violations of the resource invariants the engine's
// performance story depends on:
//
//	scratchpair     pool.GetF64 buffers reach pool.PutF64 on all paths
//	spanpair        metrics spans/stopwatches are ended on all paths
//	instrumentinit  instruments register at package level or init() only
//	noalloc         //dmml:noalloc kernels contain no allocating construct
//	lockdiscipline  no mutex copied by value; Lock/Unlock balanced
//	errpanic        no panic in internal/ carries an error value
//
// Findings print as file:line:col: [analyzer] message and any finding makes
// the exit status non-zero, so `dmmlvet ./...` is a blocking CI gate.
//
// Usage:
//
//	dmmlvet [-list] [-only analyzer[,analyzer]] [packages]
//
// Package patterns are ./... (everything, the default) or directory paths
// relative to the module root (./internal/la). The loader always
// type-checks the whole module — analyzer scoping only filters reporting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dmml/internal/vet"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dmmlvet [-list] [-only analyzers] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range vet.Analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := vet.Analyzers
	if *only != "" {
		byName := make(map[string]*vet.Analyzer)
		for _, a := range vet.Analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "dmmlvet: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	mod, err := vet.Load(cwd)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := selectPackages(mod, cwd, patterns)
	if err != nil {
		fatal(err)
	}

	findings := vet.Run(mod, pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(relativize(f, mod.Root))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dmmlvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectPackages resolves ./...-style patterns against the loaded module.
func selectPackages(mod *vet.Module, cwd string, patterns []string) ([]*vet.Package, error) {
	var out []*vet.Package
	seen := make(map[string]bool)
	add := func(p *vet.Package) {
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all":
			for _, p := range sortedPkgs(mod) {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(cwd, strings.TrimSuffix(pat, "/..."))
			matched := false
			for _, p := range sortedPkgs(mod) {
				if p.Dir == dir || strings.HasPrefix(p.Dir, dir+string(filepath.Separator)) {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no packages match %q", pat)
			}
		default:
			dir := filepath.Join(cwd, pat)
			matched := false
			for _, p := range sortedPkgs(mod) {
				if p.Dir == dir {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("no package in directory %q", pat)
			}
		}
	}
	return out, nil
}

func sortedPkgs(mod *vet.Module) []*vet.Package {
	paths := make([]string, 0, len(mod.Pkgs))
	for p := range mod.Pkgs {
		paths = append(paths, p)
	}
	// Deterministic order keeps CI output diffable.
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && paths[j] < paths[j-1]; j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
	out := make([]*vet.Package, len(paths))
	for i, p := range paths {
		out[i] = mod.Pkgs[p]
	}
	return out
}

// relativize shortens absolute file paths to module-relative for readable,
// machine-stable output.
func relativize(f vet.Finding, root string) string {
	s := f.String()
	if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = fmt.Sprintf("%s:%d:%d: [%s] %s", rel, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmmlvet:", err)
	os.Exit(2)
}
