package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dmml/internal/dml"
)

// runLint implements `dmml lint`: parse and statically analyze each script
// without executing it, printing diagnostics as "path:line:col: severity
// [code]: message". Variables a script reads but never assigns are treated as
// external inputs of unknown shape unless a -csv binding pins them down.
//
// Exit status: 0 when no script has errors (warnings allowed unless -strict),
// 1 when any script has diagnostics that fail the run, 2 on usage or I/O
// problems.
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	strict := fs.Bool("strict", false, "treat warnings as failures")
	var csvs csvBindings
	fs.Var(&csvs, "csv", "bind a headerless numeric CSV as a matrix: name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dmml lint [-strict] [-csv name=path] script.dml ...")
		return 2
	}

	env, err := csvs.load()
	if err != nil {
		fmt.Fprintf(stderr, "dmml: %v\n", err)
		return 2
	}
	inputs := dml.ShapesFromEnv(env)

	exit := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "dmml: %v\n", err)
			return 2
		}
		prog, err := dml.Parse(string(data))
		if err != nil {
			// Parse errors come formatted "dml: line:col: msg"; re-anchor
			// them on the file path like the analyzer diagnostics below.
			fmt.Fprintf(stdout, "%s:%s\n", path, strings.TrimPrefix(err.Error(), "dml: "))
			exit = 1
			continue
		}
		a := prog.Lint(inputs)
		for _, d := range a.Diags {
			fmt.Fprintf(stdout, "%s:%s\n", path, d.Format(string(data)))
		}
		if a.HasErrors() || (*strict && len(a.Diags) > 0) {
			exit = 1
		}
	}
	return exit
}
