package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the scenario at a small scale and checks the answers, not the
// timings: MatVec over the compressed matrix equals the dense one, and
// k-means clusters the decompressed sample.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 5000); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	m := regexp.MustCompile(`max \|Δ\| = (\S+)\)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no MatVec line in:\n%s", text)
	}
	if d, err := strconv.ParseFloat(m[1], 64); err != nil || !(d <= 1e-9) {
		t.Fatalf("compressed vs dense MatVec max |Δ| = %q, want ≤ 1e-9", m[1])
	}
	m = regexp.MustCompile(`k-means over decompressed sample: (\d+) clusters in \S+ \((\d+) iterations`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no k-means line in:\n%s", text)
	}
	if m[1] != "6" {
		t.Fatalf("k-means reports %s clusters, want 6", m[1])
	}
	if iters, _ := strconv.Atoi(m[2]); iters < 1 {
		t.Fatalf("k-means ran %d iterations, want ≥ 1", iters)
	}
}
