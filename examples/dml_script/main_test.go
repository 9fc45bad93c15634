package main

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"dmml/internal/la"
	"dmml/internal/workload"
)

// TestRun runs the three scripts at a small scale and checks every result,
// as written and as optimized, against the same computation written over la
// on the same generated inputs.
func TestRun(t *testing.T) {
	const n = 2000
	var out bytes.Buffer
	if err := run(&out, n); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	values := func(pattern string) []float64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("no match for %q in:\n%s", pattern, text)
		}
		var vs []float64
		for _, s := range m[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		return vs
	}
	check := func(what string, got []float64, want float64) {
		t.Helper()
		for _, g := range got {
			if math.Abs(g-want) > 1e-7*math.Abs(want) {
				t.Errorf("%s = %.10g, la reference %.10g", what, g, want)
			}
		}
	}

	// The inputs, drawn from the same stream in the same order as run.
	r := rand.New(rand.NewSource(21))
	x, y, _ := workload.Regression(r, n, 30, 0.3)
	side := chainSide(n)
	a, _, _ := workload.Regression(r, side, side, 0)
	b, _, _ := workload.Regression(r, side, side, 0)
	v, _, _ := workload.Regression(r, side, 1, 0)
	mse := func(w []float64) float64 {
		resid := la.SubVec(la.MatVec(x, w), y)
		return la.Dot(resid, resid) / n
	}

	// ridge.dml: the normal equations with λ = 0.1.
	g := la.Gram(x)
	for j := 0; j < g.Cols(); j++ {
		g.Set(j, j, g.At(j, j)+0.1)
	}
	wRidge, err := la.SolveSPD(g, la.XtY(x, y))
	if err != nil {
		t.Fatal(err)
	}
	check("ridge mse", append(values(`naive: +mse=(\S+)`), values(`optimized: mse=(\S+)`)...), mse(wRidge))

	// chain.dml: A·B·v.
	check("chain sum", values(`chain sums: left-to-right=(\S+) optimized=(\S+)`),
		la.SumVec(la.MatVec(a, la.MatVec(b, v.Col(0)))))

	// gd.dml: 100 steps of 5e-6 from w = 0.
	xtx, xty := la.Gram(x), la.XtY(x, y)
	w := make([]float64, x.Cols())
	for it := 0; it < 100; it++ {
		grad := la.SubVec(la.MatVec(xtx, w), xty)
		la.Axpy(-0.000005, grad, w)
	}
	check("gd mse", values(`naive loop: mse=(\S+) in .*; with LICM: mse=(\S+) in`), mse(w))
}
