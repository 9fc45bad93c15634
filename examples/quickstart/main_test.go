package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun trains at a small scale and checks the answer: a plan table with a
// chosen row, and a model that classifies its own training data.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2000); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	_, table, ok := strings.Cut(text, "plan table (cheapest first, * = chosen):\n")
	table, _, _ = strings.Cut(table, "\n\n")
	if !ok || !strings.HasPrefix(table, "* ") {
		t.Fatalf("no plan table with a chosen first row in:\n%s", text)
	}
	m := regexp.MustCompile(`training accuracy: ([0-9.]+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no accuracy line in:\n%s", text)
	}
	if acc, err := strconv.ParseFloat(m[1], 64); err != nil || acc < 0.9 {
		t.Fatalf("training accuracy %q, want ≥ 0.9", m[1])
	}
}
