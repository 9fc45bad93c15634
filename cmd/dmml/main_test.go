package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

		bp, err := storage.NewBufferPoolBytes(1<<20, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dml.SetReadConfig(dml.ReadConfig{Pool: bp, Budget: 1}) // every file is over budget
		paged, _, err := prog.Run(dml.Env{})
		dml.SetReadConfig(dml.ReadConfig{})
		if err != nil {
			t.Fatalf("%s via out-of-core read(): %v", f.name, err)
		}
		if paged.O == nil {
			t.Fatalf("%s: read() over budget did not go out of core", f.name)
		}
		back, err := paged.O.ToDense()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(f.want, 0) {
			t.Fatalf("%s via out-of-core read() = %v, want %v", f.name, back, f.want)
		}
	}
}
