package dml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dmml/internal/la"
)

// rowRegions counts a plan's Row producers (single-statement regions and
// pair producers, the nodes that run the template) and pair consumers.
func rowRegions(p *Program) (producers, consumers int) {
	p.forEachFused(func(f *Fused) {
		if f.Kind != FuseRow {
			return
		}
		if f.Row != nil {
			producers++
		} else {
			consumers++
		}
	})
	return producers, consumers
}

// sameEnv reports the first difference between two environments after a
// run: a key present in only one, or a value whose bits differ.
func sameEnv(a, b Env) error {
	keys := func(e Env) []string {
		var ks []string
		for k := range e {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if ka, kb := keys(a), keys(b); fmt.Sprint(ka) != fmt.Sprint(kb) {
		return fmt.Errorf("keys %v vs %v", ka, kb)
	}
	for k, va := range a {
		if err := sameValue(va, b[k]); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
	}
	return nil
}

func sameValue(a, b Value) error {
	if a.IsScalar != b.IsScalar {
		return fmt.Errorf("scalar %v vs %v", a.IsScalar, b.IsScalar)
	}
	if a.IsScalar {
		if math.Float64bits(a.S) != math.Float64bits(b.S) {
			return fmt.Errorf("%v vs %v", a.S, b.S)
		}
		return nil
	}
	if a.M == nil || b.M == nil {
		if a.M != b.M || a.O != b.O {
			return fmt.Errorf("representations differ")
		}
		return nil
	}
	ar, ac := a.M.Dims()
	br, bc := b.M.Dims()
	if ar != br || ac != bc {
		return fmt.Errorf("%dx%d vs %dx%d", ar, ac, br, bc)
	}
	da, db := a.M.RawData(), b.M.RawData()
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return fmt.Errorf("cell %d: %v vs %v", i, da[i], db[i])
		}
	}
	return nil
}

// logregSrc is the benchmark script's shape: a two-statement GD step
// (p = sigmoid(X %*% w), then t(X) %*% (p - y)), a ridge solve, the MSE.
const logregSrc = `w = 0 * (t(X) %*% y)
for (it in 1:4) {
  p = sigmoid(X %*% w)
  w = w - (0.5 / nrow(X)) * (t(X) %*% (p - y))
}
G = t(X) %*% X + 0.01 * eye(ncol(X))
b = solve(G, t(X) %*% y)
r = X %*% b - y
mse = sum(r ^ 2) / nrow(X)
mse + sum(w ^ 2)`

// singleGDSrc is E15's one-statement logistic GD row.
const singleGDSrc = `w2 = w * 0
for (it in 1:4) {
  g = t(X) %*% (sigmoid(X %*% w2) - y)
  w2 = w2 - 0.0001 * g
}
sum(w2 ^ 2)`

func rowTestEnv(r *rand.Rand, rows, cols int) Env {
	y := la.NewDense(rows, 1)
	for i := range y.RawData() {
		y.RawData()[i] = float64(r.Intn(2))
	}
	return Env{"X": Matrix(randDense(r, rows, cols)), "y": Matrix(y), "w": Matrix(randDense(r, cols, 1))}
}

// TestRowTemplateBitIdentity: on both Row forms the fused plan leaves the
// same environment (same keys, bit-equal values) and returns the same bits
// as OptimizeUnfused, below and above the pool's gate, at
// GOMAXPROCS 1, 2 and 4 — and without the margins and g intermediates.
func TestRowTemplateBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name         string
		src          string
		prod, consum int
	}{
		{"statement pair", logregSrc, 1, 1},
		{"single statement", singleGDSrc, 1, 0},
	} {
		for _, sh := range [][2]int{{203, 8}, {9001, 32}} { // 9001·32 cells cross 1<<18
			rows, cols := sh[0], sh[1]
			env := rowTestEnv(rand.New(rand.NewSource(int64(rows))), rows, cols)
			shapes := ShapesFromEnv(env)
			prog := mustParse(t, tc.src)
			unfused := prog.OptimizeUnfused(shapes)
			fused := prog.Optimize(shapes)
			if p, c := rowRegions(fused); p != tc.prod || c != tc.consum {
				t.Fatalf("%s: %d Row producers and %d consumers, want %d and %d:\n%s", tc.name, p, c, tc.prod, tc.consum, fused)
			}
			if p, c := rowRegions(unfused); p+c != 0 {
				t.Fatalf("%s: OptimizeUnfused formed Row regions", tc.name)
			}
			if again := fused.Optimize(shapes); again.String() != fused.String() || fmt.Sprint(rowRegions(again)) != fmt.Sprint(rowRegions(fused)) {
				t.Fatalf("%s: re-optimizing changed the Row plan", tc.name)
			}
			wantEnv := cloneEnv(env)
			want, wantStats, err := unfused.Run(wantEnv)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 4} {
				withProcs(procs, func() {
					gotEnv := cloneEnv(env)
					got, stats, err := fused.Run(gotEnv)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameValue(got, want); err != nil {
						t.Errorf("%s %dx%d procs %d: value: %v", tc.name, rows, cols, procs, err)
					}
					if err := sameEnv(gotEnv, wantEnv); err != nil {
						t.Errorf("%s %dx%d procs %d: env: %v", tc.name, rows, cols, procs, err)
					}
					// Per iteration the margins and g's one intermediate (the
					// pair) or both of g's (single statement) are gone.
					if saved := wantStats.CellsAllocated - stats.CellsAllocated; saved < 2*4*int64(rows) {
						t.Errorf("%s %dx%d procs %d: %d cells saved, want ≥ %d", tc.name, rows, cols, procs, saved, 2*4*rows)
					}
					if got := stats.CellsAllocated + stats.CellsSaved; got != wantStats.CellsAllocated {
						t.Errorf("%s: allocated+saved = %d, unfused allocated %d", tc.name, got, wantStats.CellsAllocated)
					}
				})
			}
		}
	}
}

// TestRowTemplateNotApplied: where the template's conditions fail it stays
// out of the plan (or, for an out-of-core X, out of the run), and the plan
// computes exactly what OptimizeUnfused does.
func TestRowTemplateNotApplied(t *testing.T) {
	const rows, cols = 300, 5
	r := rand.New(rand.NewSource(33))
	env := rowTestEnv(r, rows, cols)
	env["W"] = Matrix(randDense(r, cols, 2))
	env["Y"] = Matrix(randDense(r, rows, 2))
	cases := []struct{ name, src string }{
		{"intervening assignment", "p = sigmoid(X %*% w)\ny = y * 2\ng = t(X) %*% (p - y)"},
		{"non-column u", "P = sigmoid(X %*% W)\nG = t(X) %*% (P - Y)"},
		{"different blocks", "p = sigmoid(X %*% w)\nfor (i in 1:2) {\n  g = t(X) %*% (p - y)\n}\ng"},
		{"g reads v outside the link", "p = sigmoid(X %*% w)\ng = t(X) %*% (p - sum(p) * y)"},
	}
	for _, tc := range cases {
		prog := mustParse(t, tc.src)
		shapes := ShapesFromEnv(env)
		fused := prog.Optimize(shapes)
		if p, c := rowRegions(fused); p+c != 0 {
			t.Errorf("%s: %d Row producers, %d consumers formed:\n%s", tc.name, p, c, fused)
		}
		wantEnv, gotEnv := cloneEnv(env), cloneEnv(env)
		want, _, err := prog.OptimizeUnfused(shapes).Run(wantEnv)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _, err := fused.Run(gotEnv)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sameValue(got, want); err != nil {
			t.Errorf("%s: value: %v", tc.name, err)
		}
		if err := sameEnv(gotEnv, wantEnv); err != nil {
			t.Errorf("%s: env: %v", tc.name, err)
		}
	}

	t.Run("out-of-core X", func(t *testing.T) {
		path := writeCSV(t, 600, cols)
		x := runWithPool(t, newPool(t, 8*1024), fmt.Sprintf("read(%q)", path), Env{})
		if x.O == nil {
			t.Fatal("read() did not go out of core")
		}
		dense := rowTestEnv(r, 600, cols)
		withX := func() Env {
			env := cloneEnv(dense)
			env["X"] = x
			return env
		}
		prog := mustParse(t, "p = sigmoid(X %*% w)\ng = t(X) %*% (p - y)\nh = t(X) %*% (X %*% w - y)")
		shapes := ShapesFromEnv(withX())
		fused := prog.Optimize(shapes)
		if p, _ := rowRegions(fused); p != 2 {
			t.Fatalf("want both forms planned on the static shapes, got %d producers", p)
		}
		wantEnv, gotEnv := withX(), withX()
		_, wantStats, err := prog.OptimizeUnfused(shapes).Run(wantEnv)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := fused.Run(gotEnv)
		if err != nil {
			t.Fatal(err)
		}
		if stats.FusedRegions != 0 || stats.CellsAllocated != wantStats.CellsAllocated {
			t.Fatalf("Row ran on an out-of-core X: %d regions, %d cells vs unfused %d",
				stats.FusedRegions, stats.CellsAllocated, wantStats.CellsAllocated)
		}
		for _, k := range []string{"p", "g", "h"} {
			if err := sameValue(gotEnv[k], wantEnv[k]); err != nil {
				t.Errorf("%s: %v", k, err)
			}
		}
	})
}

// TestRowPairOperandErrorsAtConsumer: an operand of g that fails when the
// producer evaluates it is the consumer statement's error, reported there
// exactly as the unfused plan reports it.
func TestRowPairOperandErrorsAtConsumer(t *testing.T) {
	const rows, cols = 40, 3
	env := rowTestEnv(rand.New(rand.NewSource(34)), rows, cols)
	prog := mustParse(t, "p = sigmoid(X %*% w)\nq = p * 2\ng = t(X) %*% (p - y * sum(y[(sum(w) * 0 + 1.5):2, 1]))")
	shapes := ShapesFromEnv(env)
	fused := prog.Optimize(shapes)
	if p, c := rowRegions(fused); p != 1 || c != 1 {
		t.Fatalf("pair not formed: %d producers, %d consumers", p, c)
	}
	gotEnv, wantEnv := cloneEnv(env), cloneEnv(env)
	_, _, errF := fused.Run(gotEnv)
	_, _, errU := prog.OptimizeUnfused(shapes).Run(wantEnv)
	if errF == nil || errU == nil || errF.Error() != errU.Error() {
		t.Fatalf("fused err %v, unfused err %v", errF, errU)
	}
	if err := sameEnv(gotEnv, wantEnv); err != nil {
		t.Fatalf("env before the failing statement: %v", err)
	}
}

// TestBareSigmoidTilePath: a sigmoid no region covers runs on the tile
// kernel and still equals the scalar function bit for bit.
func TestBareSigmoidTilePath(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	a := randDense(r, 37, 11)
	a.Apply(func(v float64) float64 { return v * 40 })
	got := runProg(t, "sigmoid(A)", Env{"A": Matrix(a)})
	want := a.Clone().Apply(la.Sigmoid)
	if err := sameValue(got, Matrix(want)); err != nil {
		t.Fatal(err)
	}
	if s := runProg(t, "sigmoid(-2)", Env{}); s.S != la.Sigmoid(-2) {
		t.Fatalf("scalar sigmoid = %v", s.S)
	}
}
