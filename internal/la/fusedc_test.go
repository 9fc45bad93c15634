package la

// Kernel-compiler properties: every program CompileFused accepts compiles;
// the flat matcher must fire on the template shapes it advertises and its
// kernels agree with the materializing reference (bit for bit on cells, to
// the reduction tolerance on aggregates); the vectorized sigmoid must be
// bit-identical to the scalar form; and the compiled entry points must hold
// the zero-alloc contract.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func relClose(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// ops builders for the template table.
func opsLoad(i int) FusedOp      { return FusedOp{Code: FuseLoad, Arg: i} }
func opsConst(v float64) FusedOp { return FusedOp{Code: FuseConst, Val: v} }
func opsOp(c FuseOpCode) FusedOp { return FusedOp{Code: c} }

// TestFlatTemplateMatch pins the pattern matcher: each template shape must
// compile to its named flat kernel and agree with the materializing
// reference — bit for bit on cells, within reduction tolerance on
// aggregates — and a lone affine sigmoid must stay a closure tree.
func TestFlatTemplateMatch(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	rows, cols := 37, 23
	x := randMat(r, rows, cols, 0)
	y := randMat(r, rows, cols, 0)

	cases := []struct {
		name string
		ops  []FusedOp
		nin  int
		ins  []FusedInput
		flat string
		cell bool // flatCell expected; else flatSum+flatRow
	}{
		{
			// The E15 heavy hitter: sigmoid(x*2 + 1)*x - x/3.
			name: "sigchain",
			ops: []FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul), opsConst(1), opsOp(FuseAdd),
				opsOp(FuseSigmoid), opsLoad(0), opsOp(FuseMul), opsLoad(0), opsConst(3), opsOp(FuseDiv), opsOp(FuseSub)},
			nin: 1, ins: []FusedInput{DenseInput(x)}, flat: "cell.sigchain", cell: true,
		},
		{
			name: "sigmoid bare",
			ops:  []FusedOp{opsLoad(0), opsOp(FuseSigmoid)},
			nin:  1, ins: []FusedInput{DenseInput(x)}, flat: "",
		},
		{
			// Dynamic scalar slope: sigmoid(x*s + 0.5) with s an input.
			name: "sigmoid dynamic affine",
			ops: []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul), opsConst(0.5), opsOp(FuseAdd),
				opsOp(FuseSigmoid)},
			nin: 2, ins: []FusedInput{DenseInput(x), ScalarInput(1.7)}, flat: "",
		},
		{
			name: "axpy add",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsConst(-1e-4), opsOp(FuseMul), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy", cell: true,
		},
		{
			name: "axpy rsub",
			ops:  []FusedOp{opsConst(3), opsLoad(1), opsOp(FuseMul), opsLoad(0), opsOp(FuseSub)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy", cell: true,
		},
		{
			name: "scalebin",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsConst(0.5), opsOp(FuseMul)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.scalebin", cell: true,
		},
		{
			// Derived scalar: (x*y) / (s1*s2) — prelude computes the divisor.
			name: "scalebin derived scalar",
			ops: []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul), opsLoad(2), opsLoad(3),
				opsOp(FuseMul), opsOp(FuseDiv)},
			nin: 4, ins: []FusedInput{DenseInput(x), DenseInput(y), ScalarInput(2.5), ScalarInput(0.8)},
			flat: "cell.scalebin", cell: true,
		},
		{
			name: "agg sqdiff",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub), opsOp(FuseSq)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.sqdiff",
		},
		{
			name: "agg sq",
			ops:  []FusedOp{opsLoad(0), opsOp(FuseSq)},
			nin:  1, ins: []FusedInput{DenseInput(x)}, flat: "agg.sq",
		},
		{
			name: "agg mul",
			ops:  []FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseMul)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.mul",
		},
		{
			name: "agg muladd",
			ops:  []FusedOp{opsLoad(0), opsLoad(0), opsOp(FuseMul), opsLoad(1), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "agg.muladd",
		},
		{
			// x*2 + y: an axpy as a cell, a scaleadd row aggregate.
			name: "scaleadd dual",
			ops:  []FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul), opsLoad(1), opsOp(FuseAdd)},
			nin:  2, ins: []FusedInput{DenseInput(x), DenseInput(y)}, flat: "cell.axpy",
		},
	}
	for _, tc := range cases {
		p, err := CompileFused(tc.ops, tc.nin)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k := p.kernelFor(tc.ins)
		if k.flat != tc.flat {
			t.Errorf("%s: flat %q, want %q", tc.name, k.flat, tc.flat)
			continue
		}
		if tc.cell && k.flatCell == nil {
			t.Errorf("%s: flatCell not installed", tc.name)
		}
		if !tc.cell && tc.flat != "" && (k.flatSum == nil || k.flatRow == nil) {
			t.Errorf("%s: flat aggregate kernels not installed", tc.name)
		}

		ref := refFused(p, tc.ins, rows, cols)
		if got := FusedCell(p, tc.ins, rows, cols); !bitsEqual(got.data, ref) {
			t.Errorf("%s: cell differs from the reference", tc.name)
		}
		v := make([]float64, cols)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		tol := 1e-8 * float64(p.arith+1)
		var wantSum float64
		wantMV := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wantSum += ref[i*cols+j]
				wantMV[i] += ref[i*cols+j] * v[j]
			}
		}
		if got := FusedSum(p, tc.ins, rows, cols); !relClose(got, wantSum, tol) {
			t.Errorf("%s: sum %g, reference %g", tc.name, got, wantSum)
		}
		gotMV := FusedMatVecInto(make([]float64, rows), p, tc.ins, rows, cols, v)
		for i := range gotMV {
			if !relClose(gotMV[i], wantMV[i], tol) {
				t.Errorf("%s: matvec[%d] %g, reference %g", tc.name, i, gotMV[i], wantMV[i])
				break
			}
		}
	}
}

// TestCompileRefused: CompileFused is the only place a program is refused
// — what it accepts compiles for every input mix. An all-scalar program
// broadcasts through the kernel, a 31-input program compiles, and a
// 32-input program is an error up front.
func TestCompileRefused(t *testing.T) {
	// Scalar-rooted: constant fold plus a dynamic scalar, broadcast.
	p, err := CompileFused([]FusedOp{opsConst(2), opsConst(3), opsOp(FuseAdd), opsLoad(0), opsOp(FuseMul),
		opsOp(FuseSigmoid)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins := []FusedInput{ScalarInput(-0.25)}
	if k := p.kernelFor(ins); k.root == nil {
		t.Fatal("scalar-rooted program has no compiled root")
	}
	want := refFused(p, ins, 2, 3)
	if got := FusedCell(p, ins, 2, 3); !bitsEqual(got.data, want) || got.data[0] != Sigmoid(5*-0.25) {
		t.Errorf("scalar broadcast = %v, want %v", got.data, want)
	}
	if got := FusedRowSumsInto(make([]float64, 2), p, ins, 2, 3); !relClose(got[1], 3*want[0], 1e-15) {
		t.Errorf("scalar rowSums = %v, want %g", got, 3*want[0])
	}

	chain := func(nin int) []FusedOp {
		ops := []FusedOp{opsLoad(0)}
		for i := 1; i < nin; i++ {
			ops = append(ops, opsLoad(i), opsOp(FuseAdd))
		}
		return ops
	}
	r := rand.New(rand.NewSource(35))
	p31, err := CompileFused(chain(fuseMaxInputs), fuseMaxInputs)
	if err != nil {
		t.Fatalf("%d-input program refused: %v", fuseMaxInputs, err)
	}
	ins31 := make([]FusedInput, fuseMaxInputs)
	for i := range ins31 {
		switch i % 3 {
		case 0:
			ins31[i] = DenseInput(randMat(r, 3, 3, 0))
		case 1:
			ins31[i] = DenseInput(randMat(r, 3, 3, 0.5))
		default:
			ins31[i] = ScalarInput(r.NormFloat64())
		}
	}
	if got, want := FusedCell(p31, ins31, 3, 3), refFused(p31, ins31, 3, 3); !bitsEqual(got.data, want) {
		t.Errorf("%d-input program: %v, reference %v", fuseMaxInputs, got.data, want)
	}
	if _, err := CompileFused(chain(fuseMaxInputs+1), fuseMaxInputs+1); err == nil {
		t.Errorf("CompileFused(%d inputs) succeeded, want error", fuseMaxInputs+1)
	}
}

// TestSigmoidTileBitExact: the vectorized sigmoid against the scalar
// Sigmoid, over specials (±0, ±Inf, NaN, denormal-adjacent, gate
// boundaries) and a wide random sweep. This is the invariant that lets the
// fused kernels and the serving link agree with the unfused evaluator.
func TestSigmoidTileBitExact(t *testing.T) {
	t.Logf("fuseExpMode = %d", fuseExpMode)
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p-28, -0x1p-28, 0x1p-29, -0x1p-29, 1e-300, -1e-300,
		699.9, -699.9, 700, -700, 710, -710, 36.7, -36.7,
		math.Ln2, -math.Ln2, 3 * math.Ln2, -3 * math.Ln2}
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		xs = append(xs, r.NormFloat64()*math.Exp(r.Float64()*12-6))
	}
	dst := make([]float64, len(xs))
	sigmoidTile(dst, xs)
	for i, x := range xs {
		want := Sigmoid(x)
		if math.Float64bits(dst[i]) != math.Float64bits(want) &&
			!(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("sigmoidTile(%g) = %x, Sigmoid = %x", x,
				math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
	// In-place application must agree too.
	cp := append([]float64(nil), xs...)
	sigmoidTile(cp, cp)
	if !bitsEqual(cp, dst) {
		t.Error("in-place sigmoidTile differs from out-of-place")
	}
}

// TestExp8MatchesMathExp re-asserts the init probe's verdict as a real
// test, over fresh random points the probe never saw.
func TestExp8MatchesMathExp(t *testing.T) {
	if fuseExpMode == 0 {
		t.Skip("no vector exp variant certified on this platform; scalar fallback active")
	}
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 50000; i++ {
		x := -(sigGateLo + r.Float64()*(sigGateHi-sigGateLo))
		want := math.Float64bits(math.Exp(x))
		var a, b, c, d, e, f, g, h float64
		if fuseExpMode == 1 {
			a, b, c, d, e, f, g, h = exp8FMA(x, x, x, x, x, x, x, x)
		} else {
			a, b, c, d, e, f, g, h = exp8NoFMA(x, x, x, x, x, x, x, x)
		}
		for _, got := range []float64{a, b, c, d, e, f, g, h} {
			if math.Float64bits(got) != want {
				t.Fatalf("exp8 mode %d at %g: %x, want %x", fuseExpMode, x, math.Float64bits(got), want)
			}
		}
	}
}

// TestFusedCheckInputsPanics: one test per validation branch, pinning the
// message each malformed input dies with (the satellite fix: ambiguous
// dense+sparse inputs must not be reported as dense shape mismatches).
func TestFusedCheckInputsPanics(t *testing.T) {
	p, err := CompileFused([]FusedOp{opsLoad(0), opsOp(FuseSq)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(38))
	good := randMat(r, 3, 4, 0)
	expectPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			rec := recover()
			if rec == nil {
				t.Errorf("%s: no panic, want %q", name, want)
				return
			}
			msg, _ := rec.(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want substring %q", name, msg, want)
			}
		}()
		f()
	}
	expectPanic("arity", "fused program wants 1 inputs, got 2", func() {
		FusedCell(p, []FusedInput{DenseInput(good), DenseInput(good)}, 3, 4)
	})
	expectPanic("dense shape", "fused dense input 0 is 3x4, want 4x3", func() {
		FusedCell(p, []FusedInput{DenseInput(good)}, 4, 3)
	})
	expectPanic("empty", "fused input 0 is neither scalar nor matrix", func() {
		FusedCell(p, []FusedInput{{}}, 3, 4)
	})
}

// TestCompiledZeroAllocSteadyState: the flat templates and the
// dynamic-scalar prelude hold the zero-allocation contract after the
// first (compiling) call.
func TestCompiledZeroAllocSteadyState(t *testing.T) {
	withGOMAXPROCS(1, func() {
		r := rand.New(rand.NewSource(39))
		rows, cols := 500, 60
		x := randMat(r, rows, cols, 0)
		y := randMat(r, rows, cols, 0)
		out := NewDense(rows, cols)
		rowDst := make([]float64, rows)

		// sigchain flat cell.
		chain, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul),
			opsConst(1), opsOp(FuseAdd), opsOp(FuseSigmoid), opsLoad(0), opsOp(FuseMul),
			opsLoad(0), opsConst(3), opsOp(FuseDiv), opsOp(FuseSub)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		xIn := []FusedInput{DenseInput(x)}
		if flat := chain.kernelFor(xIn).flat; flat != "cell.sigchain" {
			t.Fatalf("sigchain not flat-compiled: %q", flat)
		}
		if a := testing.AllocsPerRun(50, func() { FusedCellInto(out, chain, xIn) }); a != 0 {
			t.Errorf("compiled sigchain FusedCellInto allocates %v per run, want 0", a)
		}

		// scaleadd flat row aggregate.
		sa, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsOp(FuseMul),
			opsLoad(1), opsOp(FuseAdd)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		xyIn := []FusedInput{DenseInput(x), DenseInput(y)}
		if a := testing.AllocsPerRun(50, func() { FusedRowSumsInto(rowDst, sa, xyIn, rows, cols) }); a != 0 {
			t.Errorf("compiled FusedRowSumsInto allocates %v per run, want 0", a)
		}

		// Dynamic-scalar prelude: (x-y)/(s1*s2) hoists the divisor per call.
		ds, err := CompileFused([]FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseSub),
			opsLoad(2), opsLoad(3), opsOp(FuseMul), opsOp(FuseDiv)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		dsIn := []FusedInput{DenseInput(x), DenseInput(y), ScalarInput(2.5), ScalarInput(0.8)}
		if flat := ds.kernelFor(dsIn).flat; flat != "cell.scalebin" {
			t.Fatalf("derived-scalar scalebin not flat-compiled: %q", flat)
		}
		if a := testing.AllocsPerRun(50, func() { FusedCellInto(out, ds, dsIn) }); a != 0 {
			t.Errorf("compiled prelude FusedCellInto allocates %v per run, want 0", a)
		}
	})
}

// TestCompiledConstantFolding: all-constant scalar subtrees fold at compile
// time — the kernel for (x + (2*3+1)) must carry no prelude and still
// match the reference bit for bit.
func TestCompiledConstantFolding(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	x := randMat(r, 7, 11, 0)
	p, err := CompileFused([]FusedOp{opsLoad(0), opsConst(2), opsConst(3), opsOp(FuseMul),
		opsConst(1), opsOp(FuseAdd), opsOp(FuseAdd)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ins := []FusedInput{DenseInput(x)}
	if k := p.kernelFor(ins); k.nsv != 0 || len(k.pre) != 0 {
		t.Errorf("constant subtree hoisted to prelude (nsv=%d), want compile-time fold", k.nsv)
	}
	if got := FusedCell(p, ins, 7, 11); !bitsEqual(got.data, refFused(p, ins, 7, 11)) {
		t.Error("folded constants differ from the reference")
	}
}
