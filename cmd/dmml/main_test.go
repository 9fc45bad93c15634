package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dmml/internal/dml"
	"dmml/internal/la"
	"dmml/internal/storage"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func lint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runLint(args, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

func TestLintCleanFixture(t *testing.T) {
	code, out := lint(t, "-strict", "testdata/clean.dml")
	if code != 0 || out != "" {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestLintBadFixture(t *testing.T) {
	code, out := lint(t, "testdata/bad.dml")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "testdata/bad.dml:4:7: error[dim-mismatch]") {
		t.Fatalf("diagnostic missing path:line:col anchor:\n%s", out)
	}
}

func TestLintParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.dml")
	writeFile(t, path, "x = (1\n")
	code, out := lint(t, path)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, path+":1:") {
		t.Fatalf("parse diagnostic not anchored on the file:\n%s", out)
	}
}

func TestLintMissingFile(t *testing.T) {
	if code, _ := lint(t, "no/such/file.dml"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code, _ := lint(t); code != 2 {
		t.Fatalf("no-args exit = %d, want 2", code)
	}
}

// Every DML script shipped under examples/ must lint completely clean, even
// under -strict.
func TestLintExampleScripts(t *testing.T) {
	scripts, err := filepath.Glob("../../examples/*/scripts/*.dml")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) == 0 {
		t.Fatal("no example scripts found")
	}
	for _, s := range scripts {
		code, out := lint(t, "-strict", s)
		if code != 0 {
			t.Errorf("%s: exit %d:\n%s", s, code, out)
		}
	}
}

// One numeric-CSV parser serves -csv, dense read() and out-of-core read():
// padded fields and a first row far wider than any sniffing window must load
// to the same matrix through all three.
func TestCSVLoadsIdenticallyThroughEveryPath(t *testing.T) {
	wide := make([]string, 8000)
	wideWant := la.NewDense(1, len(wide))
	for j := range wide {
		wideWant.Set(0, j, float64(j)+0.125)
		wide[j] = fmt.Sprintf("%.3f", wideWant.At(0, j))
	}
	padded, _ := la.FromRows([][]float64{{1, 2.5}, {-3, 4e2}})
	files := []struct {
		name, content string
		want          *la.Dense
	}{
		{"padded.csv", "1, 2.5\n -3 ,4e2 \n", padded},
		{"wide.csv", strings.Join(wide, ",") + "\n", wideWant},
	}
	dir := t.TempDir()
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		writeFile(t, path, f.content)
		script := fmt.Sprintf("read(%q)", path)
		prog, err := dml.Parse(script)
		if err != nil {
			t.Fatal(err)
		}

		env, err := csvBindings{"X=" + path}.load()
		if err != nil {
			t.Fatalf("%s via -csv: %v", f.name, err)
		}
		if !env["X"].M.Equal(f.want, 0) {
			t.Fatalf("%s via -csv = %v, want %v", f.name, env["X"].M, f.want)
		}

		dense, _, err := prog.Run(dml.Env{})
		if err != nil {
			t.Fatalf("%s via dense read(): %v", f.name, err)
		}
		if dense.M == nil || !dense.M.Equal(f.want, 0) {
			t.Fatalf("%s via dense read() = %v, want %v", f.name, dense, f.want)
		}

		// The smallest pool: every file is over its budget.
		if prog.Pool, err = storage.NewBufferPoolBytes(8, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		paged, _, err := prog.Run(dml.Env{})
		if err != nil {
			t.Fatalf("%s via out-of-core read(): %v", f.name, err)
		}
		if paged.O == nil {
			t.Fatalf("%s: read() over budget did not go out of core", f.name)
		}
		back := la.NewDense(paged.O.Rows(), paged.O.Cols())
		unit, col := make([]float64, back.Cols()), make([]float64, back.Rows())
		for j := range unit {
			unit[j] = 1 // column j of X is X %*% e_j, exactly
			if err := paged.O.MatVec(col, unit); err != nil {
				t.Fatal(err)
			}
			unit[j] = 0
			for i, v := range col {
				back.Set(i, j, v)
			}
		}
		if !back.Equal(f.want, 0) {
			t.Fatalf("%s via out-of-core read() = %v, want %v", f.name, back, f.want)
		}
	}
}

// dmml runs the command with args and returns its stdout, failing the test
// on a non-zero exit.
func dmml(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("dmml %s: exit %d: %s", strings.Join(args, " "), code, errOut.String())
	}
	return out.String()
}

// writeUniformCSV writes a rows x cols CSV of uniform [0,1) values, so every
// probe below is a sum of positive terms and a relative tolerance holds.
func writeUniformCSV(t *testing.T, path string, r *rand.Rand, rows, cols int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%.6f", r.Float64())
		}
		sb.WriteByte('\n')
	}
	writeFile(t, path, sb.String())
}

// -ooc-budget sizes read()'s blocks from the budget: a file whose
// 4096-row block exceeds half the budget still streams with prefetch (two
// blocks pinned at once) and matches the dense run, and the spill directory
// is gone when dmml returns.
func TestOOCBudgetReadMatchesDense(t *testing.T) {
	const rows, cols, budget = 6000, 8, 256 << 10
	if 8*4096*cols <= budget/2 {
		t.Fatal("a 4096-row block must exceed half the budget")
	}
	dir := t.TempDir()
	r := rand.New(rand.NewSource(33))
	x, v, y := filepath.Join(dir, "x.csv"), filepath.Join(dir, "v.csv"), filepath.Join(dir, "y.csv")
	writeUniformCSV(t, x, r, rows, cols)
	writeUniformCSV(t, v, r, cols, 1)
	writeUniformCSV(t, y, r, rows, 1)
	if fi, err := os.Stat(x); err != nil || fi.Size() <= budget {
		t.Fatalf("x.csv must exceed the budget: %v, %v", fi, err)
	}
	spill := t.TempDir()
	t.Setenv("TMPDIR", spill)
	for _, probe := range []string{
		"nrow(X) * ncol(X)",
		"sum(X)",
		"mean(X)",
		"sum(colSums(X))",
		"sum(X %*% v)",
		"sum(t(X) %*% y)",
		"sum(t(X) %*% X)",
	} {
		script := fmt.Sprintf("X = read(%q)\n%s", x, probe)
		bind := []string{"-csv", "v=" + v, "-csv", "y=" + y, "-e", script}
		want, err := strconv.ParseFloat(strings.TrimSpace(dmml(t, bind...)), 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := strconv.ParseFloat(strings.TrimSpace(dmml(t, append([]string{"-ooc-budget", "256KB"}, bind...)...)), 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: out-of-core %v, dense %v", probe, got, want)
		}
	}
	if left, err := os.ReadDir(spill); err != nil || len(left) != 0 {
		t.Fatalf("spill directory not removed: %v, %v", left, err)
	}
}
