package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dmml/internal/factorized"
	"dmml/internal/opt"
)

// TestRun runs the example at a small scale and checks its answers: the
// relational pipeline's matrix is exactly the materialized join, and
// gradient descent lands on the same weights over it and over the
// factorized schema.
func TestRun(t *testing.T) {
	const n = 4000
	var out bytes.Buffer
	if err := run(&out, n); err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(out.String(), "plan table (cheapest first, * = chosen):\n")
	if !ok || !strings.HasPrefix(table, "* factorized+") {
		t.Fatalf("no plan table with a chosen factorized first row in:\n%s", out.String())
	}

	star, err := newStar(n)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := star.Tables()
	if err != nil {
		t.Fatal(err)
	}
	x, err := star.JoinedMatrix(tables)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(star.Materialize(), 0) {
		t.Fatal("HashJoin + ToMatrix rows differ from the materialized star join")
	}

	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
	if err != nil {
		t.Fatal(err)
	}
	mat, err := opt.GradientDescent(opt.DenseData{M: x}, star.Y, opt.Squared{}, gd)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := opt.GradientDescent(design, star.Y, opt.Squared{}, gd)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for _, v := range mat.W {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range mat.W {
		if d := math.Abs(fac.W[j] - mat.W[j]); d > 1e-6*scale {
			t.Errorf("W[%d]: factorized %v, materialized %v", j, fac.W[j], mat.W[j])
		}
	}
}
