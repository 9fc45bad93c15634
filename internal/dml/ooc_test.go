package dml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/storage"
)

// newColumn wraps a slice as an n x 1 matrix Value.
func newColumn(v []float64) (Value, error) {
	m, err := la.NewDenseData(len(v), 1, v)
	if err != nil {
		return Value{}, err
	}
	return Matrix(m), nil
}

// writeCSV writes an rows x cols CSV of low-cardinality values (compressible,
// like quantized features) plus a deterministic noise column.
func writeCSV(t *testing.T, rows, cols int) string {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			if j == cols-1 {
				fmt.Fprintf(&sb, "%.6f", r.NormFloat64())
			} else {
				fmt.Fprintf(&sb, "%d", r.Intn(3+j))
			}
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runProg(t *testing.T, src string, env Env) Value {
	t.Helper()
	return runWithPool(t, nil, src, env)
}

// runWithPool runs src with pool as the program's Pool, so read() pages
// files larger than its budget.
func runWithPool(t *testing.T, pool *storage.BufferPool, src string, env Env) Value {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p.Pool = pool
	v, _, err := p.Run(env)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return v
}

func TestStringLiteralLexing(t *testing.T) {
	p, err := Parse(`X = read("a\"b\\c\n\t.csv")` + "\nnrow(X)")
	if err != nil {
		t.Fatal(err)
	}
	call := p.Stmts[0].Expr.(*Call)
	got := call.Args[0].(*StrLit).Val
	if got != "a\"b\\c\n\t.csv" {
		t.Fatalf("unescaped value = %q", got)
	}
	for _, bad := range []string{
		`read("unterminated`,
		"read(\"newline\nin string\")",
		`read("bad \q escape")`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q): want lex error", bad)
		}
	}
}

func TestStringOutsideReadRejected(t *testing.T) {
	for _, src := range []string{
		`x = "hello"` + "\nx + 1",
		`1 + "two"`,
		`sum("m")`,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, _, err := p.Run(Env{}); err == nil {
			t.Fatalf("Run(%q): want error for string outside read()", src)
		}
	}
}

func TestReadNonLiteralRejected(t *testing.T) {
	p, err := Parse("x = 1\nread(x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(Env{}); err == nil {
		t.Fatal("want error for read with non-string argument")
	}
}

func TestReadDense(t *testing.T) {
	path := writeCSV(t, 40, 4)
	v := runProg(t, fmt.Sprintf("X = read(%q)\nnrow(X) * 1000 + ncol(X)", path), Env{})
	if !v.IsScalar || v.S != 40*1000+4 {
		t.Fatalf("dims probe = %v, want 40004", v)
	}
	x := runProg(t, fmt.Sprintf("read(%q)", path), Env{})
	if x.M == nil || x.O != nil {
		t.Fatalf("read without config must be dense, got %v", x)
	}
}

func TestReadErrors(t *testing.T) {
	p, err := Parse(`read("/definitely/not/there.csv")`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(Env{}); err == nil {
		t.Fatal("want error for missing file")
	}
	dir := t.TempDir()
	ragged := filepath.Join(dir, "ragged.csv")
	os.WriteFile(ragged, []byte("1,2\n3\n"), 0o644)
	nonnum := filepath.Join(dir, "nonnum.csv")
	os.WriteFile(nonnum, []byte("1,two\n"), 0o644)
	empty := filepath.Join(dir, "empty.csv")
	os.WriteFile(empty, []byte(""), 0o644)
	for _, path := range []string{ragged, nonnum, empty, dir} {
		p, err := Parse(fmt.Sprintf("read(%q)", path))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Run(Env{}); err == nil {
			t.Fatalf("read(%q): want parse/IO error", path)
		}
	}
}

// newPool returns a buffer pool of budget bytes spilling to a test temp dir.
func newPool(t *testing.T, budget int64) *storage.BufferPool {
	t.Helper()
	bp, err := storage.NewBufferPoolBytes(budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestReadOutOfCoreMatchesDense(t *testing.T) {
	path := writeCSV(t, 600, 5)
	probes := []string{
		"nrow(X)",
		"ncol(X)",
		"sum(X)",
		"mean(X)",
		"sum(colSums(X))",
		"sum(X %*% w)",
		"sum(t(X) %*% y)",
		"sum(t(X) %*% X)",
	}
	env := Env{}
	dense := runProg(t, fmt.Sprintf("X = read(%q)", path), env)
	if dense.M == nil {
		t.Fatal("want dense matrix before configuration")
	}
	w := make([]float64, 5)
	y := make([]float64, 600)
	r := rand.New(rand.NewSource(5))
	for j := range w {
		w[j] = r.NormFloat64()
	}
	for i := range y {
		y[i] = r.NormFloat64()
	}
	wm, _ := newColumn(w)
	ym, _ := newColumn(y)

	want := make([]float64, len(probes))
	for i, probe := range probes {
		src := fmt.Sprintf("X = read(%q)\n%s", path, probe)
		v := runProg(t, src, Env{"w": wm, "y": ym})
		want[i] = v.S
	}

	// A pool larger than the file leaves read() dense.
	if v := runWithPool(t, newPool(t, 1<<20), fmt.Sprintf("read(%q)", path), Env{}); v.M == nil {
		t.Fatalf("read() under a pool larger than the file = %v, want dense", v)
	}

	// read() pages a file larger than its pool's budget, prefetching.
	bp := newPool(t, 8*1024)
	for i, probe := range probes {
		src := fmt.Sprintf("X = read(%q)\n%s", path, probe)
		v := runWithPool(t, bp, src, Env{"w": wm, "y": ym})
		if math.Abs(v.S-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("read() probe %q = %v, want %v", probe, v.S, want[i])
		}
	}
	v := runWithPool(t, bp, fmt.Sprintf("read(%q)", path), Env{})
	if v.O == nil {
		t.Fatal("read() over budget: want out-of-core matrix")
	}
	if v.O.NumBlocks() < 2 {
		t.Fatalf("read() over budget: want multiple blocks, got %d", v.O.NumBlocks())
	}

	// Every block layout, with and without prefetch, behind the same
	// probes: read() compresses whatever compresses and always prefetches,
	// so the other arms are bound directly.
	for _, noCompress := range []bool{false, true} {
		for _, prefetch := range []bool{false, true} {
			m, err := ooc.FromDense(bp, dense.M, ooc.Options{BlockRows: 128, NoCompress: noCompress, Prefetch: prefetch})
			if err != nil {
				t.Fatal(err)
			}
			if (m.CompressedBlocks() == 0) != noCompress {
				t.Fatalf("NoCompress=%v: %d of %d blocks compressed", noCompress, m.CompressedBlocks(), m.NumBlocks())
			}
			for i, probe := range probes {
				v := runProg(t, probe, Env{"X": OOC(m), "w": wm, "y": ym})
				if math.Abs(v.S-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("NoCompress=%v prefetch=%v probe %q = %v, want %v", noCompress, prefetch, probe, v.S, want[i])
				}
			}
		}
	}
}

// A spill read failing under a streaming op is that op's error, not a panic.
func TestOutOfCoreSpillReadFailure(t *testing.T) {
	path := writeCSV(t, 600, 5)
	bp := newPool(t, 4*1024) // a few of fifty blocks resident
	wm, _ := newColumn(make([]float64, 5))
	ym, _ := newColumn(make([]float64, 600))
	env := Env{"w": wm, "y": ym}
	runWithPool(t, bp, fmt.Sprintf("X = read(%q)", path), env)
	injected := errors.New("disk on fire")
	bp.SetFailureHooks(func(storage.PageID) error { return injected }, nil)
	for _, c := range []struct{ probe, op string }{
		{"sum(X)", "sum"},
		{"mean(X)", "mean"},
		{"colSums(X)", "colSums"},
		{"X %*% w", "X %*% v"},
		{"t(X) %*% y", "t(X) %*% v"},
		{"t(X) %*% X", "t(X) %*% X"},
	} {
		p, err := Parse(c.probe)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = p.Run(env)
		if !errors.Is(err, injected) || !strings.Contains(err.Error(), c.op+": ooc: ") {
			t.Fatalf("probe %q: err = %v, want the injected read failure under %q", c.probe, err, c.op)
		}
	}
}

func TestOutOfCoreUnsupportedOps(t *testing.T) {
	path := writeCSV(t, 600, 5)
	bp := newPool(t, 8*1024)
	for _, probe := range []string{
		"X + 1",
		"-X",
		"exp(X)",
		"min(X)",
		"rowSums(X)",
		"X[1, 1]",
		"t(X)",
		"X %*% X2",
		"sum(sigmoid(X) - X)",
	} {
		src := fmt.Sprintf("X = read(%q)\nX2 = read(%q)\n%s", path, path, probe)
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p.Pool = bp
		if _, _, err := p.Run(Env{}); err == nil || !strings.Contains(err.Error(), "not supported on an out-of-core matrix") {
			t.Fatalf("probe %q: err = %v, want out-of-core unsupported error", probe, err)
		}
	}
}

// TestOutOfCoreGradientPipeline exercises the physical patterns a batch
// gradient program needs — the workload read() paging exists for.
func TestOutOfCoreGradientPipeline(t *testing.T) {
	path := writeCSV(t, 900, 4)
	src := fmt.Sprintf(`X = read(%q)
n = nrow(X)
g = t(X) %%*%% (X %%*%% w - y) / n
sum(g)`, path)

	env := Env{}
	denseX := runProg(t, fmt.Sprintf("read(%q)", path), env)
	w := make([]float64, 4)
	y := make([]float64, 900)
	r := rand.New(rand.NewSource(6))
	for j := range w {
		w[j] = r.NormFloat64()
	}
	for i := range y {
		y[i] = r.NormFloat64()
	}
	wm, _ := newColumn(w)
	ym, _ := newColumn(y)
	_ = denseX
	want := runProg(t, src, Env{"w": wm, "y": ym})

	got := runWithPool(t, newPool(t, 8*1024), src, Env{"w": wm, "y": ym})
	if math.Abs(got.S-want.S) > 1e-9*(1+math.Abs(want.S)) {
		t.Fatalf("ooc gradient = %v, want %v", got.S, want.S)
	}
}
