// Command dmml runs a declarative-ML (DML) script: an R-like matrix
// expression language — assignments, counted loops, conditionals — with a
// SystemML-style rewrite optimizer (matrix-chain reordering, aggregate
// fusion, loop-invariant code motion).
//
// Usage:
//
//	dmml script.dml                 # optimize and run a script file
//	dmml -e 'sum(eye(3))'           # evaluate an expression
//	dmml -explain script.dml        # print the optimized program, then run
//	dmml -no-opt script.dml         # skip the rewrite engine
//	dmml -csv name=path.csv ...     # bind numeric CSV files as matrices
//	dmml -stats script.dml          # print a per-operator time table
//	dmml -cpuprofile cpu.pprof ...  # write a pprof CPU profile
//	dmml -ooc-budget 64MB s.dml     # page big read() inputs out of core
//	dmml lint script.dml ...        # static analysis only; do not execute
//
// CSV bindings load headerless numeric CSV files; each becomes a dense
// matrix variable available to the script.
//
// -ooc-budget sets a memory budget for read(): files larger than the budget
// load as block-paged, CLA-compressed out-of-core matrices backed by a
// buffer pool of that byte budget (blocks sized from it, with async block
// prefetch), instead of dense in-memory matrices. Scripts keep working
// unchanged as long as they only use the streaming-friendly operations
// (nrow, ncol, sum, mean, colSums, X %*% v, t(X) %*% v, t(X) %*% X).
//
// -stats enables the engine metrics registry for the run and prints a
// SystemML-style heavy-hitter table afterwards: each operator's call
// count, self time (excluding nested operators), total wall time, and
// share of the run. -cpuprofile/-memprofile write standard pprof profiles
// for `go tool pprof`.
//
// The lint subcommand runs the static semantic analyzer (shape/type
// inference plus program lints) and prints diagnostics as
// "path:line:col: severity[code]: message". It exits non-zero if any script
// has errors; with -strict, warnings also fail the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dmml/internal/dml"
	"dmml/internal/metrics"
	"dmml/internal/storage"
)

type csvBindings []string

func (c *csvBindings) String() string { return strings.Join(*c, ",") }

func (c *csvBindings) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

// load reads every name=path binding as a dense matrix variable.
func (c csvBindings) load() (dml.Env, error) {
	env := dml.Env{}
	for _, bind := range c {
		name, path, _ := strings.Cut(bind, "=")
		m, err := storage.ReadMatrixCSVFile(path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", bind, err)
		}
		env[name] = dml.Matrix(m)
	}
	return env, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(runLint(os.Args[2:], os.Stdout, os.Stderr))
	}
	// All work happens in run so deferred teardown (profile flushing) runs
	// before the process exits; os.Exit in main would skip it.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dmml without the lint subcommand: it parses args, runs the script
// or expression, prints its value to stdout and everything else to stderr,
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmml", flag.ExitOnError)
	fs.SetOutput(stderr)
	expr := fs.String("e", "", "evaluate this expression instead of a file")
	explain := fs.Bool("explain", false, "print the optimized program before running")
	noOpt := fs.Bool("no-opt", false, "disable the rewrite optimizer")
	statsFlag := fs.Bool("stats", false, "collect engine metrics and print a per-operator time table")
	statsTop := fs.Int("stats-top", 15, "rows in the -stats operator table (0 = all)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	oocBudget := fs.String("ooc-budget", "", "memory budget for read(): larger inputs stream as compressed out-of-core blocks (e.g. 64MB; empty = always dense)")
	var csvs csvBindings
	fs.Var(&csvs, "csv", "bind a headerless numeric CSV as a matrix: name=path (repeatable)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	fail := func(err error) int {
		fmt.Fprintln(stderr, "dmml:", err)
		return 1
	}

	var pool *storage.BufferPool
	if *oocBudget != "" {
		budget, err := storage.ParseByteSize(*oocBudget)
		if err != nil {
			return fail(fmt.Errorf("-ooc-budget: %w", err))
		}
		spill, err := os.MkdirTemp("", "dmml-ooc-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(spill)
		if pool, err = storage.NewBufferPoolBytes(budget, spill); err != nil {
			return fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "dmml:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "dmml:", err)
			}
		}()
	}

	src := *expr
	if src == "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: dmml [-e expr] [-explain] [-no-opt] [-stats] [-csv name=path] [-ooc-budget size] [script.dml]")
			return 2
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		src = string(data)
	}

	env, err := csvs.load()
	if err != nil {
		return fail(err)
	}

	prog, err := dml.Parse(src)
	if err != nil {
		return fail(err)
	}
	prog.Pool = pool
	if !*noOpt {
		prog = prog.Optimize(dml.ShapesFromEnv(env))
	}
	if *explain {
		fmt.Fprintln(stdout, "# optimized program:")
		fmt.Fprintln(stdout, prog)
		fmt.Fprintln(stdout, "# ---")
	}
	if *statsFlag {
		metrics.Reset()
		metrics.Enable()
	}
	start := time.Now()
	val, evalStats, err := prog.Run(env)
	elapsed := time.Since(start)
	for _, w := range evalStats.Warnings {
		fmt.Fprintf(stderr, "dmml: warning: %s\n", w.Format(src))
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, val)
	fmt.Fprintf(stderr, "# flops=%.3g cells=%d cse_hits=%d\n",
		evalStats.Flops, evalStats.CellsAllocated, evalStats.CSEHits)
	if *statsFlag {
		printOpStats(stderr, elapsed, *statsTop)
	}
	return 0
}
