package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dmml/internal/dml"
	"dmml/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stats.golden from this run")

// statsRowRe matches one data row of the -stats table: rank, operator,
// count, then the time/share columns we mask.
var statsRowRe = regexp.MustCompile(`^\d+\s+(\S+)\s+(\d+)\s+\S+\s+\S+\s+\S+$`)

// normalizeStatsTable reduces the table to its deterministic content:
// operator names and call counts. Times (and hence self-time ranking and
// the share column) vary run to run, so rows are re-sorted by name.
func normalizeStatsTable(t *testing.T, table string) string {
	t.Helper()
	var rows []string
	for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
		if strings.HasPrefix(line, "#") { // header
			continue
		}
		m := statsRowRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("-stats row does not match the expected shape: %q", line)
		}
		rows = append(rows, fmt.Sprintf("%s %s", m[1], m[2]))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n") + "\n"
}

// TestStatsGolden pins the -stats table for a fixed script: which operators
// fire and how often is deterministic (parser, optimizer, and evaluator are
// deterministic), and the golden file documents it — including the rewrite
// wins (t(X)%*%X running as la.Gram, LICM keeping dml.op.%*% far below the
// loop's iteration count).
func TestStatsGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/stats.dml")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := dml.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog = prog.Optimize(dml.ShapesFromEnv(nil))

	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	if _, _, err := prog.Run(dml.Env{}); err != nil {
		t.Fatal(err)
	}

	table := metrics.FormatOpsTable(metrics.Ops(""), 0, time.Second)
	got := normalizeStatsTable(t, table)

	const goldenPath = "testdata/stats.golden"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-stats operator counts changed (rerun with -update-golden if intended)\ngot:\n%swant:\n%s", got, want)
	}
}

// TestStatsShowsBuilderInstruments: reading a CSV out of core under -stats
// shows how long the reader waited on the builder's block in flight (a timer
// row) and how many columns the compression planner settled as UC from a
// row sample (a counter row). The file exceeds the budget, so it streams in
// ten blocks of up to 819 rows, each long enough to sample; its uniform
// columns have a few repeats among 10⁶ values, so most samples are all
// distinct. Each block but the first waits on the one before it, and Finish
// on the last.
func TestStatsShowsBuilderInstruments(t *testing.T) {
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	dir := t.TempDir()
	x := filepath.Join(dir, "x.csv")
	writeUniformCSV(t, x, rand.New(rand.NewSource(34)), 8000, 5)
	t.Setenv("TMPDIR", t.TempDir())
	var out, errOut bytes.Buffer
	if code := run([]string{"-stats", "-ooc-budget", "256KB", "-e", fmt.Sprintf("X = read(%q)\nsum(X)", x)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^\d+\s+ooc\.append\.wait\s+10\s`),
		regexp.MustCompile(`(?m)^compress\.columns\.sampled_uc\s+[1-9]\d*$`),
	} {
		if !want.MatchString(errOut.String()) {
			t.Errorf("-stats output has no line matching %s:\n%s", want, errOut.String())
		}
	}
}
