package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dmml/internal/la"
)

// mixedMatrix builds a matrix with one column per regime: low-cardinality
// categorical, run-heavy sorted categorical, sparse, and continuous.
func mixedMatrix(r *rand.Rand, rows int) *la.Dense {
	m := la.NewDense(rows, 4)
	run := 0
	runVal := 0.0
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(r.Intn(5)))
		if run == 0 {
			run = 1 + r.Intn(50)
			runVal = float64(1 + r.Intn(3))
		}
		m.Set(i, 1, runVal)
		run--
		if r.Float64() < 0.05 {
			m.Set(i, 2, float64(1+r.Intn(4)))
		}
		m.Set(i, 3, r.NormFloat64())
	}
	return m
}

func vecOf(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	m := mixedMatrix(r, 500)
	for _, opts := range []Options{{}, {CoCode: true}, {force: forceDDC}, {force: forceOLE}, {force: forceRLE}, {force: forceUC}} {
		c := Compress(m, opts)
		if !c.Decompress().Equal(m, 0) {
			t.Fatalf("round trip failed for opts %+v (groups %v)", opts, c.GroupInfo())
		}
	}
}

func TestMatVecMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := mixedMatrix(r, 800)
	c := Compress(m, Options{CoCode: true})
	v := vecOf(r, 4)
	got := c.MatVec(v)
	want := la.MatVec(m, v)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVecMatMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	m := mixedMatrix(r, 700)
	c := Compress(m, Options{})
	x := vecOf(r, 700)
	got := c.VecMat(x)
	want := la.VecMat(x, m)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-8 {
			t.Fatalf("VecMat[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestAggregatesMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	m := mixedMatrix(r, 600)
	c := Compress(m, Options{CoCode: true})
	gotSums := c.ColSums()
	wantSums := m.ColSums()
	for j := range gotSums {
		if math.Abs(gotSums[j]-wantSums[j]) > 1e-8 {
			t.Fatalf("ColSums[%d] = %v, want %v", j, gotSums[j], wantSums[j])
		}
	}
	if math.Abs(c.Sum()-m.Sum()) > 1e-7 {
		t.Fatalf("Sum = %v, want %v", c.Sum(), m.Sum())
	}
}

func TestPlannerPicksExpectedEncodings(t *testing.T) {
	rows := 4000
	m := la.NewDense(rows, 3)
	r := rand.New(rand.NewSource(35))
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(r.Intn(4))) // low card → DDC
		if r.Float64() < 0.01 {         // 1% dense → OLE
			m.Set(i, 1, 1)
		}
		m.Set(i, 2, r.NormFloat64()) // continuous → UC
	}
	c := Compress(m, Options{})
	encByCol := map[int]string{}
	for _, g := range c.Groups() {
		for _, col := range g.Cols() {
			encByCol[col] = g.Encoding()
		}
	}
	if encByCol[0] != "DDC1" {
		t.Fatalf("col 0 encoding = %s, want DDC1", encByCol[0])
	}
	if encByCol[1] != "OLE" && encByCol[1] != "RLE" {
		t.Fatalf("col 1 encoding = %s, want OLE or RLE", encByCol[1])
	}
	if encByCol[2] != "UC" {
		t.Fatalf("col 2 encoding = %s, want UC", encByCol[2])
	}
}

func TestRLEChosenForSortedData(t *testing.T) {
	rows := 5000
	m := la.NewDense(rows, 1)
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(1+i/500)) // 10 long runs
	}
	c := Compress(m, Options{})
	if enc := c.Groups()[0].Encoding(); enc != "RLE" {
		t.Fatalf("encoding = %s, want RLE", enc)
	}
	if ratio := c.CompressionRatio(); ratio < 100 {
		t.Fatalf("compression ratio = %v, want > 100 for 10 runs over 5000 rows", ratio)
	}
}

func TestCompressionRatioGrowsWithRedundancy(t *testing.T) {
	rows := 2000
	r := rand.New(rand.NewSource(36))
	lowCard := la.NewDense(rows, 2)
	highCard := la.NewDense(rows, 2)
	for i := 0; i < rows; i++ {
		lowCard.Set(i, 0, float64(r.Intn(3)))
		lowCard.Set(i, 1, float64(r.Intn(2)))
		highCard.Set(i, 0, r.NormFloat64())
		highCard.Set(i, 1, r.NormFloat64())
	}
	rl := Compress(lowCard, Options{}).CompressionRatio()
	rh := Compress(highCard, Options{}).CompressionRatio()
	if rl <= 4 {
		t.Fatalf("low-cardinality ratio = %v, want > 4", rl)
	}
	if rh > 1.1 {
		t.Fatalf("high-cardinality ratio = %v, want ≈ 1 (UC fallback)", rh)
	}
}

func TestCoCodingMergesCorrelatedColumns(t *testing.T) {
	rows := 3000
	m := la.NewDense(rows, 2)
	r := rand.New(rand.NewSource(37))
	for i := 0; i < rows; i++ {
		v := float64(r.Intn(4))
		m.Set(i, 0, v)
		m.Set(i, 1, v*10) // perfectly correlated: joint card == single card
	}
	c := Compress(m, Options{CoCode: true})
	if len(c.Groups()) != 1 {
		t.Fatalf("groups = %v, want a single co-coded group", c.GroupInfo())
	}
	if cols := c.Groups()[0].Cols(); len(cols) != 2 {
		t.Fatalf("co-coded group covers %v", cols)
	}
	if !c.Decompress().Equal(m, 0) {
		t.Fatal("co-coded round trip failed")
	}
	// Ops still match dense.
	v := []float64{1.5, -2}
	got := c.MatVec(v)
	want := la.MatVec(m, v)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("co-coded MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDDC2ForMediumCardinality(t *testing.T) {
	rows := 20000
	m := la.NewDense(rows, 1)
	r := rand.New(rand.NewSource(38))
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(r.Intn(1000))) // card ≈ 1000 → DDC2
	}
	c := Compress(m, Options{})
	if enc := c.Groups()[0].Encoding(); enc != "DDC2" {
		t.Fatalf("encoding = %s, want DDC2", enc)
	}
	if !c.Decompress().Equal(m, 0) {
		t.Fatal("DDC2 round trip failed")
	}
}

// Property: every op over a compressed matrix agrees with the dense op, for
// all planner choices, on random matrices drawn from mixed regimes.
func TestCompressedOpsEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 50 + r.Intn(300)
		m := mixedMatrix(r, rows)
		c := Compress(m, Options{CoCode: seed%2 == 0})
		v := vecOf(r, 4)
		x := vecOf(r, rows)
		mv, dmv := c.MatVec(v), la.MatVec(m, v)
		for i := range mv {
			if math.Abs(mv[i]-dmv[i]) > 1e-8 {
				return false
			}
		}
		vm, dvm := c.VecMat(x), la.VecMat(x, m)
		for j := range vm {
			if math.Abs(vm[j]-dvm[j]) > 1e-8 {
				return false
			}
		}
		return c.Decompress().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAccountingConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	m := mixedMatrix(r, 1000)
	c := Compress(m, Options{})
	total := 0
	for _, g := range c.Groups() {
		if g.SizeBytes() <= 0 {
			t.Fatalf("group %s reports non-positive size", describeGroup(g))
		}
		total += g.SizeBytes()
	}
	if total != c.SizeBytes() {
		t.Fatalf("SizeBytes %d != sum of groups %d", c.SizeBytes(), total)
	}
	if c.DenseSizeBytes() != 8*1000*4 {
		t.Fatalf("DenseSizeBytes = %d", c.DenseSizeBytes())
	}
}

func TestCompressEdgeCases(t *testing.T) {
	// All-zero column: OLE/RLE with an empty dictionary must round trip.
	zero := la.NewDense(100, 1)
	c := Compress(zero, Options{})
	if !c.Decompress().Equal(zero, 0) {
		t.Fatal("all-zero column round trip failed")
	}
	if got := c.MatVec([]float64{3})[0]; got != 0 {
		t.Fatalf("zero column MatVec = %v", got)
	}
	// Constant non-zero column.
	constant := la.NewDense(100, 1)
	for i := 0; i < 100; i++ {
		constant.Set(i, 0, 7)
	}
	c = Compress(constant, Options{})
	if !c.Decompress().Equal(constant, 0) {
		t.Fatal("constant column round trip failed")
	}
	if ratio := c.CompressionRatio(); ratio < 20 {
		t.Fatalf("constant column ratio = %v", ratio)
	}
	// Single row.
	single, _ := la.FromRows([][]float64{{1, 0, 2.5}})
	c = Compress(single, Options{CoCode: true})
	if !c.Decompress().Equal(single, 0) {
		t.Fatal("single-row round trip failed")
	}
	// Negative values and -0 handling in the dictionary key.
	neg, _ := la.FromRows([][]float64{{-1}, {1}, {-1}, {0}})
	c = Compress(neg, Options{force: forceDDC})
	if !c.Decompress().Equal(neg, 0) {
		t.Fatal("negative values round trip failed")
	}
}

func TestForcedEncodingHonored(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	m := la.NewDense(500, 2)
	for i := 0; i < 500; i++ {
		m.Set(i, 0, float64(r.Intn(3)))
		m.Set(i, 1, float64(r.Intn(3)))
	}
	for _, tc := range []struct {
		force encoding
		want  string
	}{{forceOLE, "OLE"}, {forceRLE, "RLE"}, {forceUC, "UC"}} {
		c := Compress(m, Options{force: tc.force})
		for _, g := range c.Groups() {
			if g.Encoding() != tc.want {
				t.Fatalf("forced %v produced %s", tc.force, g.Encoding())
			}
		}
	}
	// forceDDC with cardinality beyond the 2-byte code cap falls back to UC.
	wide := la.NewDense(maxDDCCard+1, 1)
	for i := 0; i < maxDDCCard+1; i++ {
		wide.Set(i, 0, float64(i))
	}
	c := Compress(wide, Options{force: forceDDC})
	if enc := c.Groups()[0].Encoding(); enc != "UC" {
		t.Fatalf("over-cap DDC produced %s, want UC fallback", enc)
	}
}
