package la

// Fused-pipeline properties: the compiled Cell and RowAgg templates must
// agree with a naive op-by-op materializing reference — bit for bit on
// cells, to the reduction tolerance on aggregates — at GOMAXPROCS=1 and N,
// serial and forced-parallel, over dense and scalar inputs; FusedSum
// must reproduce its bits at every core count; and the Into variants must
// hold the engine's zero-allocation contract.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmml/internal/pool"
)

// refFused evaluates a fused program the way the unfused evaluator would:
// one fully materialized rows·cols buffer per operation.
func refFused(p *FuseProgram, ins []FusedInput, rows, cols int) []float64 {
	n := rows * cols
	type slot struct {
		vec []float64
		s   float64
		isS bool
	}
	var stack []slot
	for _, op := range p.ops {
		switch op.Code {
		case FuseConst:
			stack = append(stack, slot{s: op.Val, isS: true})
		case FuseLoad:
			in := ins[op.Arg]
			if in.IsScalar {
				stack = append(stack, slot{s: in.S, isS: true})
			} else {
				stack = append(stack, slot{vec: append([]float64(nil), in.D.data...)})
			}
		case FuseAdd, FuseSub, FuseMul, FuseDiv, FusePow:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a.isS && b.isS {
				stack = append(stack, slot{s: fuseScalarBin(op.Code, a.s, b.s), isS: true})
				continue
			}
			out := make([]float64, n)
			for i := range out {
				av, bv := a.s, b.s
				if !a.isS {
					av = a.vec[i]
				}
				if !b.isS {
					bv = b.vec[i]
				}
				out[i] = fuseScalarBin(op.Code, av, bv)
			}
			stack = append(stack, slot{vec: out})
		default:
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if a.isS {
				stack = append(stack, slot{s: fuseScalarUn(op.Code, a.s), isS: true})
				continue
			}
			out := make([]float64, n)
			for i := range out {
				out[i] = fuseScalarUn(op.Code, a.vec[i])
			}
			stack = append(stack, slot{vec: out})
		}
	}
	res := stack[0]
	if res.isS {
		out := make([]float64, n)
		for i := range out {
			out[i] = res.s
		}
		return out
	}
	return res.vec
}

// genFusedCase builds a random valid program plus matching random inputs:
// dense (some of them mostly zeros) and scalar operands in random
// positions.
func genFusedCase(rr *rand.Rand, rows, cols int) (*FuseProgram, []FusedInput) {
	nin := 1 + rr.Intn(4)
	ins := make([]FusedInput, nin)
	for i := range ins {
		switch rr.Intn(4) {
		case 0:
			ins[i] = ScalarInput(rr.NormFloat64())
		case 1:
			ins[i] = DenseInput(randMat(rr, rows, cols, 0.8))
		default:
			ins[i] = DenseInput(randMat(rr, rows, cols, 0.3))
		}
	}
	// Random postfix program with tracked depth: a leaf when shallow,
	// otherwise a mix of leaves, unary ops, and binary folds.
	var ops []FusedOp
	depth := 0
	// Safe unary ops only: exp/log/sqrt on arbitrary reals produce
	// NaN/Inf, which compare fine but make tolerances meaningless.
	unary := []FuseOpCode{FuseNeg, FuseSq, FuseAbs, FuseSigmoid}
	binary := []FuseOpCode{FuseAdd, FuseSub, FuseMul}
	leaf := func() {
		if rr.Intn(5) == 0 {
			ops = append(ops, FusedOp{Code: FuseConst, Val: rr.NormFloat64()})
		} else {
			ops = append(ops, FusedOp{Code: FuseLoad, Arg: rr.Intn(nin)})
		}
		depth++
	}
	leaf()
	steps := 2 + rr.Intn(10)
	for s := 0; s < steps; s++ {
		switch {
		case depth >= 2 && rr.Intn(2) == 0:
			ops = append(ops, FusedOp{Code: binary[rr.Intn(len(binary))]})
			depth--
		case rr.Intn(3) == 0:
			ops = append(ops, FusedOp{Code: unary[rr.Intn(len(unary))]})
		case depth < fuseMaxDepth-1:
			leaf()
		}
	}
	for depth > 1 {
		ops = append(ops, FusedOp{Code: binary[rr.Intn(len(binary))]})
		depth--
	}
	p, err := CompileFused(ops, nin)
	if err != nil {
		panic(err)
	}
	return p, ins
}

func closeSlices(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// checkFusedProp runs prop over count random seeds drawn from seed, at
// GOMAXPROCS=1 and N.
func checkFusedProp(t *testing.T, seed int64, count int, prop func(rr *rand.Rand) bool) {
	r := rand.New(rand.NewSource(seed))
	f := func(s int64) bool { return prop(rand.New(rand.NewSource(s))) }
	eachProcs(func() {
		if err := quick.Check(f, &quick.Config{MaxCount: count, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// smallShape draws a shape far under the pool's gate.
func smallShape(rr *rand.Rand) (rows, cols int) { return 1 + rr.Intn(40), 1 + rr.Intn(40) }

// gateShape draws a shape of at least 2¹⁷ cells, over the pool's gate
// whatever the program, with some rows wider than a tile, on a multi-chunk
// grid.
func gateShape(t *testing.T) func(rr *rand.Rand) (rows, cols int) {
	return func(rr *rand.Rand) (rows, cols int) {
		rows = 64 + rr.Intn(200)
		cols = (1<<17+rows-1)/rows + rr.Intn(40)
		multiChunk(t, rows, cols)
		return rows, cols
	}
}

// fusedCellMatchesRef: one random program and input mix — scalar-rooted
// programs included — must come out of FusedCell bit for bit as the
// materializing reference computes it.
func fusedCellMatchesRef(t *testing.T, rr *rand.Rand, shape func(*rand.Rand) (int, int)) bool {
	rows, cols := shape(rr)
	p, ins := genFusedCase(rr, rows, cols)
	want := refFused(p, ins, rows, cols)
	if got := FusedCell(p, ins, rows, cols); !bitsEqual(got.data, want) {
		t.Logf("cell differs from reference at %dx%d, %d ops", rows, cols, len(p.ops))
		return false
	}
	return true
}

// TestFusedCellEquivalence: the compiled closure/flat cell kernels against
// the materializing reference, on the small shapes of the serial path and on
// the pool path, over the gate.
func TestFusedCellEquivalence(t *testing.T) {
	checkFusedProp(t, 21, 40, func(rr *rand.Rand) bool { return fusedCellMatchesRef(t, rr, smallShape) })
	checkFusedProp(t, 21, 40, func(rr *rand.Rand) bool { return fusedCellMatchesRef(t, rr, gateShape(t)) })
}

// TestCompiledCellMatchesReference: the same property on the serial path,
// at shapes far under the gate.
func TestCompiledCellMatchesReference(t *testing.T) {
	checkFusedProp(t, 31, 40, func(rr *rand.Rand) bool { return fusedCellMatchesRef(t, rr, smallShape) })
}

// TestFusedSumReproducible: FusedSum's fixed tile-aligned chunks make its
// result bit-identical across repeats and GOMAXPROCS 1, 2 and 4 — for a
// closure-tree program and a squared scaling over partly-zero data, each large
// enough to split into several chunks and to cross the pool's gate.
func TestFusedSumReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	rows, cols := 700, 400
	x := randMat(r, rows, cols, 0)
	y := randMat(r, rows, cols, 0)
	c := randMat(r, rows, cols, 0.2)
	// sum((x - y) * 0.5 + sigmoid(x)) has no flat template.
	dense, err := CompileFused([]FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsConst(0.5), opsOp(FuseMul),
		opsLoad(0), opsOp(FuseSigmoid), opsOp(FuseAdd)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	square, err := CompileFused([]FusedOp{opsConst(2), opsLoad(0), opsOp(FuseMul), opsOp(FuseSq)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *FuseProgram
		ins  []FusedInput
	}{
		{"dense", dense, []FusedInput{DenseInput(x), DenseInput(y)}},
		{"partly zeros", square, []FusedInput{DenseInput(c)}},
	} {
		var want float64
		withGOMAXPROCS(1, func() { want = FusedSum(tc.p, tc.ins, rows, cols) })
		for _, procs := range []int{1, 2, 4} {
			withGOMAXPROCS(procs, func() {
				for rep := 0; rep < 20; rep++ {
					if got := FusedSum(tc.p, tc.ins, rows, cols); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: GOMAXPROCS=%d rep %d: sum %x, want %x", tc.name, procs, rep,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			})
		}
		ref := refFused(tc.p, tc.ins, rows, cols)
		var naive float64
		for _, v := range ref {
			naive += v
		}
		if math.Abs(want-naive) > tolFor(rows*cols)*(1+math.Abs(naive)) {
			t.Errorf("%s: sum %g, reference %g", tc.name, want, naive)
		}
	}
}

// fusedAggMatchesRef: every RowAgg reduction (sum, rowSums, colSums,
// matrix-vector) of one random program against reductions of the
// materialized reference.
func fusedAggMatchesRef(t *testing.T, rr *rand.Rand, shape func(*rand.Rand) (int, int)) bool {
	rows, cols := shape(rr)
	p, ins := genFusedCase(rr, rows, cols)
	ref := refFused(p, ins, rows, cols)
	tol := tolFor(rows*cols) * float64(p.arith+1)

	var wantSum float64
	for _, v := range ref {
		wantSum += v
	}
	if got := FusedSum(p, ins, rows, cols); math.Abs(got-wantSum) > tol {
		t.Logf("sum mismatch at %dx%d: %g vs %g", rows, cols, got, wantSum)
		return false
	}

	wantRow := make([]float64, rows)
	wantCol := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wantRow[i] += ref[i*cols+j]
			wantCol[j] += ref[i*cols+j]
		}
	}
	if got := FusedRowSumsInto(make([]float64, rows), p, ins, rows, cols); !closeSlices(got, wantRow, tol) {
		t.Logf("rowSums mismatch at %dx%d", rows, cols)
		return false
	}
	if got := FusedColSumsInto(make([]float64, cols), p, ins, rows, cols); !closeSlices(got, wantCol, tol) {
		t.Logf("colSums mismatch at %dx%d", rows, cols)
		return false
	}

	v := make([]float64, cols)
	for j := range v {
		v[j] = rr.NormFloat64()
	}
	wantMV := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wantMV[i] += ref[i*cols+j] * v[j]
		}
	}
	if got := FusedMatVecInto(make([]float64, rows), p, ins, rows, cols, v); !closeSlices(got, wantMV, tol*10) {
		t.Logf("matvec mismatch at %dx%d", rows, cols)
		return false
	}
	return true
}

// TestFusedAggEquivalence: the aggregate property on the small shapes of
// the serial path and on the pool path, over the gate.
func TestFusedAggEquivalence(t *testing.T) {
	checkFusedProp(t, 22, 40, func(rr *rand.Rand) bool { return fusedAggMatchesRef(t, rr, smallShape) })
	checkFusedProp(t, 22, 40, func(rr *rand.Rand) bool { return fusedAggMatchesRef(t, rr, gateShape(t)) })
}

// TestCompiledAggMatchesReference: the aggregate property on the serial
// path.
func TestCompiledAggMatchesReference(t *testing.T) {
	checkFusedProp(t, 32, 30, func(rr *rand.Rand) bool { return fusedAggMatchesRef(t, rr, smallShape) })
}

// TestFusedWideRows drives the cols > fusedTileW column-chunking path.
func TestFusedWideRows(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rows, cols := 3, fusedTileW*2+37
	x := randMat(r, rows, cols, 0.5)
	// (x * 2) + 1
	p, err := CompileFused([]FusedOp{
		{Code: FuseLoad, Arg: 0},
		{Code: FuseConst, Val: 2},
		{Code: FuseMul},
		{Code: FuseConst, Val: 1},
		{Code: FuseAdd},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins := []FusedInput{DenseInput(x)}
	ref := refFused(p, ins, rows, cols)
	tol := tolFor(cols)
	if got := FusedCell(p, ins, rows, cols); !closeSlices(got.data, ref, 1e-12) {
		t.Error("wide cell mismatch")
	}
	wantRow := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wantRow[i] += ref[i*cols+j]
		}
	}
	if got := FusedRowSumsInto(make([]float64, rows), p, ins, rows, cols); !closeSlices(got, wantRow, tol) {
		t.Error("wide rowSums mismatch")
	}
	wantCol := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wantCol[j] += ref[i*cols+j]
		}
	}
	if got := FusedColSumsInto(make([]float64, cols), p, ins, rows, cols); !closeSlices(got, wantCol, tol) {
		t.Error("wide colSums mismatch")
	}
}

// TestCompileFusedRejects: malformed programs fail compilation instead of
// corrupting the interpreter stack.
func TestCompileFusedRejects(t *testing.T) {
	cases := []struct {
		name string
		ops  []FusedOp
		nin  int
	}{
		{"empty", nil, 0},
		{"underflow-binary", []FusedOp{{Code: FuseLoad}, {Code: FuseAdd}}, 1},
		{"underflow-unary", []FusedOp{{Code: FuseNeg}}, 0},
		{"leftover", []FusedOp{{Code: FuseLoad}, {Code: FuseLoad}}, 1},
		{"bad-input", []FusedOp{{Code: FuseLoad, Arg: 2}}, 1},
		{"bad-opcode", []FusedOp{{Code: 250}}, 0},
	}
	for _, tc := range cases {
		if _, err := CompileFused(tc.ops, tc.nin); err == nil {
			t.Errorf("CompileFused(%s) succeeded, want error", tc.name)
		}
	}
	deep := make([]FusedOp, 0, fuseMaxDepth+2)
	for i := 0; i < fuseMaxDepth+1; i++ {
		deep = append(deep, FusedOp{Code: FuseConst, Val: 1})
	}
	for i := 0; i < fuseMaxDepth; i++ {
		deep = append(deep, FusedOp{Code: FuseAdd})
	}
	if _, err := CompileFused(deep, 0); err == nil {
		t.Error("CompileFused(too deep) succeeded, want error")
	}
}

// TestFusedZeroAllocSteadyState pins the scratch-reuse contract: after
// warmup, fused Cell-into and RowAgg calls allocate nothing in the serial
// regime — the whole point of running a GD loop fused.
func TestFusedZeroAllocSteadyState(t *testing.T) {
	withGOMAXPROCS(1, func() {
		r := rand.New(rand.NewSource(25))
		rows, cols := 500, 60
		x := randMat(r, rows, cols, 0)
		y := randMat(r, rows, cols, 0)
		out := NewDense(rows, cols)
		v := make([]float64, cols)
		rowDst := make([]float64, rows)
		colDst := make([]float64, cols)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		// (x - y) * 0.5 fused cell; sum((x-y)^2) and (x-y)·v row aggregates.
		cell, err := CompileFused([]FusedOp{
			{Code: FuseLoad, Arg: 0},
			{Code: FuseLoad, Arg: 1},
			{Code: FuseSub},
			{Code: FuseConst, Val: 0.5},
			{Code: FuseMul},
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := CompileFused([]FusedOp{
			{Code: FuseLoad, Arg: 0},
			{Code: FuseLoad, Arg: 1},
			{Code: FuseSub},
			{Code: FuseSq},
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		ins := []FusedInput{DenseInput(x), DenseInput(y)}
		if a := testing.AllocsPerRun(50, func() { FusedCellInto(out, cell, ins) }); a != 0 {
			t.Errorf("FusedCellInto allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { FusedSum(agg, ins, rows, cols) }); a != 0 {
			t.Errorf("FusedSum allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { FusedRowSumsInto(rowDst, agg, ins, rows, cols) }); a != 0 {
			t.Errorf("FusedRowSumsInto allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { FusedColSumsInto(colDst, agg, ins, rows, cols) }); a != 0 {
			t.Errorf("FusedColSumsInto allocates %v per run, want 0", a)
		}
		if a := testing.AllocsPerRun(50, func() { FusedMatVecInto(rowDst, cell, ins, rows, cols, v) }); a != 0 {
			t.Errorf("FusedMatVecInto allocates %v per run, want 0", a)
		}

		// A complete fused GD iteration — residual r = Xw - y via the matvec
		// template, gradient g = Xᵀr via the scratch XtYInto path, update
		// w -= lr·g — holds the zero-alloc pin end to end.
		w := make([]float64, cols)
		grad := make([]float64, cols)
		resid := make([]float64, rows)
		yv := make([]float64, rows)
		for i := range yv {
			yv[i] = r.NormFloat64()
		}
		ident, err := CompileFused([]FusedOp{{Code: FuseLoad, Arg: 0}, {Code: FuseConst, Val: 1}, {Code: FuseMul}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		xIn := []FusedInput{DenseInput(x)}
		gdStep := func() {
			FusedMatVecInto(resid, ident, xIn, rows, cols, w)
			for i := range resid {
				resid[i] -= yv[i]
			}
			XtYInto(grad, x, resid)
			for j := range w {
				w[j] -= 1e-4 * grad[j]
			}
		}
		if a := testing.AllocsPerRun(50, gdStep); a != 0 {
			t.Errorf("fused GD step allocates %v per run, want 0", a)
		}
	})
}

// TestXtYIntoEquivalence: the new scratch-path XtYInto agrees with XtY and
// allocates nothing in the serial regime.
func TestXtYIntoEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	x := randMat(r, 300, 40, 0.2)
	y := make([]float64, 300)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	want := XtY(x, y)
	dst := make([]float64, 40)
	eachProcs(func() {
		if got := XtYInto(dst, x, y); !closeSlices(got, want, tolFor(300)) {
			t.Error("XtYInto mismatch vs XtY")
		}
	})
	withGOMAXPROCS(1, func() {
		if a := testing.AllocsPerRun(50, func() { XtYInto(dst, x, y) }); a != 0 {
			t.Errorf("XtYInto allocates %v per run, want 0", a)
		}
	})
}

// TestFusedParallelRace hammers the pool path from the race detector's
// perspective: fused kernels over shared inputs over the pool's gate. Run
// with -race via `make race` (internal/la is in RACE_PKGS).
func TestFusedParallelRace(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	rows, cols := 200, 700
	withGOMAXPROCS(2, func() {
		if !pool.Parallel(rows * cols) {
			t.Fatalf("%dx%d is under the pool's gate: the race test would not reach the pool", rows, cols)
		}
	})
	x := randMat(r, rows, cols, 0.3)
	c := randMat(r, rows, cols, 0.8)
	p, err := CompileFused([]FusedOp{
		{Code: FuseLoad, Arg: 0},
		{Code: FuseLoad, Arg: 1},
		{Code: FuseAdd},
		{Code: FuseSq},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ins := []FusedInput{DenseInput(x), DenseInput(c)}
	_ = pool.Workers() // warm the pool before the racing section
	for i := 0; i < 4; i++ {
		FusedCell(p, ins, rows, cols)
		FusedSum(p, ins, rows, cols)
		FusedRowSumsInto(make([]float64, rows), p, ins, rows, cols)
		FusedColSumsInto(make([]float64, cols), p, ins, rows, cols)
	}
}
