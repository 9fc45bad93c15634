package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"dmml/internal/modelsel"
)

// TestRun searches at a small scale and checks the answers: successive
// halving picks a point of the grid whose validation accuracy is within
// 0.02 of the exhaustive grid's best, and the registry loaded back from its
// JSON holds the same runs and the same best run as the one that wrote it.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 4000); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	find := func(pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("no match for %q in:\n%s", pattern, text)
		}
		return m[1:]
	}
	num := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	gridBest := num(find(`grid: +best acc ([0-9.]+)`)[0])
	shBest := num(find(`successive halving: best acc ([0-9.]+)`)[0])
	if shBest < gridBest-0.02 {
		t.Errorf("successive halving's best %.4f is more than 0.02 below the grid's %.4f", shBest, gridBest)
	}
	pick := find(`successive halving picks step=(\S+) l2=(\S+)`)
	step, l2 := num(pick[0]), num(pick[1])
	inGrid := false
	for _, c := range modelsel.Grid(space) {
		if c["step"] == step && c["l2"] == l2 {
			inGrid = true
		}
	}
	if !inGrid {
		t.Errorf("successive halving picked step=%g l2=%g, not a grid point", step, l2)
	}

	logged := find(`registry: (\d+) runs logged; best val_acc (\S+) with config (map\[.*\])`)
	reloaded := find(`registry reloaded from \d+ bytes of JSON: (\d+) runs; best val_acc (\S+) with config (map\[.*\])`)
	if logged[0] != strconv.Itoa(len(modelsel.Grid(space))) {
		t.Errorf("logged %s runs, want one per grid point", logged[0])
	}
	for i, what := range []string{"run count", "best val_acc", "best config"} {
		if logged[i] != reloaded[i] {
			t.Errorf("registry round trip changed the %s: %s before, %s after", what, logged[i], reloaded[i])
		}
	}
}
