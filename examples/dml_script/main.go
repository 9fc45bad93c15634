// Declarative ML scenario: write linear algebra, let the optimizer plan it.
//
// This example embeds a DML script that fits ridge regression through the
// normal equations and computes its training error, then shows what the
// SystemML-style rewrite engine does to it: matrix-chain reordering,
// aggregate fusion, and identity elimination — with before/after execution
// statistics.
//
//	go run ./examples/dml_script
package main

import (
	_ "embed"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"dmml/internal/dml"
	"dmml/internal/la"
	"dmml/internal/workload"
)

// The scripts live in scripts/ so `dmml lint` (and the lint tests) can check
// them without running this example.
var (
	//go:embed scripts/ridge.dml
	script string
	//go:embed scripts/chain.dml
	chainScript string
	//go:embed scripts/gd.dml
	gdScript string
)

func main() {
	if err := run(os.Stdout, 200000); err != nil {
		log.Fatal(err)
	}
}

// chainSide is the side of the square matrices in the chain script, capped
// at the row count so a small run stays small.
func chainSide(n int) int { return min(600, n) }

// run executes the three scripts over an n×30 regression problem (the chain
// over chainSide(n)-square matrices), each as written and as optimized, and
// writes the plans, results and timings to w.
func run(w io.Writer, n int) error {
	r := rand.New(rand.NewSource(21))
	x, yv, _ := workload.Regression(r, n, 30, 0.3)
	y := la.NewDense(len(yv), 1)
	for i, v := range yv {
		y.Set(i, 0, v)
	}
	makeEnv := func() dml.Env {
		return dml.Env{
			"X":      dml.Matrix(x),
			"y":      dml.Matrix(y),
			"lambda": dml.Scalar(0.1),
		}
	}

	prog, err := dml.Parse(script)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "original program:")
	fmt.Fprintln(w, indent(prog.String()))

	optimized := prog.Optimize(dml.ShapesFromEnv(makeEnv()))
	fmt.Fprintln(w, "\noptimized program (note __sumsq fusion):")
	fmt.Fprintln(w, indent(optimized.String()))

	start := time.Now()
	vNaive, statsNaive, err := prog.Run(makeEnv())
	if err != nil {
		return err
	}
	tNaive := time.Since(start)

	start = time.Now()
	vOpt, statsOpt, err := optimized.Run(makeEnv())
	if err != nil {
		return err
	}
	tOpt := time.Since(start)

	fmt.Fprintf(w, "\nnaive:     mse=%.10g  time=%v  cells=%d  cse_hits=%d\n",
		vNaive.S, tNaive.Round(time.Millisecond), statsNaive.CellsAllocated, statsNaive.CSEHits)
	fmt.Fprintf(w, "optimized: mse=%.10g  time=%v  cells=%d  cse_hits=%d\n",
		vOpt.S, tOpt.Round(time.Millisecond), statsOpt.CellsAllocated, statsOpt.CSEHits)

	// A second script showing matrix-chain reordering.
	p2, err := dml.Parse(chainScript)
	if err != nil {
		return err
	}
	side := chainSide(n)
	env2 := dml.Env{}
	for _, name := range []string{"A", "B"} {
		m, _, _ := workload.Regression(r, side, side, 0)
		env2[name] = dml.Matrix(m)
	}
	vv, _, _ := workload.Regression(r, side, 1, 0)
	env2["v"] = dml.Matrix(vv)
	opt2 := p2.Optimize(dml.ShapesFromEnv(env2))
	fmt.Fprintf(w, "\nchain %q reordered to %q\n", p2.String(), opt2.String())
	start = time.Now()
	vLeft, _, err := p2.Run(env2)
	if err != nil {
		return err
	}
	tLeft := time.Since(start)
	start = time.Now()
	vChain, _, err := opt2.Run(env2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "left-to-right: %v, optimized: %v\n",
		tLeft.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
	fmt.Fprintf(w, "chain sums: left-to-right=%.10g optimized=%.10g\n", vLeft.M.Sum(), vChain.M.Sum())

	// A third script: gradient descent written entirely in DML, showing
	// loop-invariant code motion.
	p3, err := dml.Parse(gdScript)
	if err != nil {
		return err
	}
	opt3 := p3.Optimize(dml.ShapesFromEnv(makeEnv()))
	fmt.Fprintln(w, "\nGD-in-DML, optimized (note the hoisted __licm temps):")
	fmt.Fprintln(w, indent(opt3.String()))
	start = time.Now()
	vNaive2, _, err := p3.Run(makeEnv())
	if err != nil {
		return err
	}
	tN := time.Since(start)
	start = time.Now()
	vOpt2, _, err := opt3.Run(makeEnv())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "naive loop: mse=%.10g in %v; with LICM: mse=%.10g in %v\n",
		vNaive2.S, tN.Round(time.Millisecond), vOpt2.S, time.Since(start).Round(time.Millisecond))
	return nil
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out[:len(out)-1]
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, c := range s {
		if c == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(c)
	}
	return append(lines, cur)
}
