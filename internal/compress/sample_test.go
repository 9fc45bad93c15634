package compress

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmml/internal/la"
	"dmml/internal/metrics"
)

// encodingOf is the encoding the planner built group g with.
func encodingOf(g Group) encoding {
	switch g.(type) {
	case *DDCGroup:
		return forceDDC
	case *OLEGroup:
		return forceOLE
	case *RLEGroup:
		return forceRLE
	}
	return forceUC
}

// plannerCase is one column of TestSampledPlanMatchesExactPlanner.
type plannerCase struct {
	name string
	col  []float64
}

// plannerCases returns columns of rows values around every boundary of the
// encoding choice. A column of cardinality k spreads its k values as evenly
// as rows allow, in random order: the fewest repeats k values can have, so
// the hardest case for a row sample to tell from an all-distinct column.
func plannerCases(r *rand.Rand, rows int) []plannerCase {
	var cases []plannerCase
	for _, k := range []int{1, 2, 255, 256, 257, 1000, 3*rows/4 - 1, 3*rows/4 + 1, rows} {
		col := make([]float64, rows)
		for i, p := range r.Perm(rows) {
			col[i] = float64(p%k) + 0.5
		}
		cases = append(cases, plannerCase{fmt.Sprintf("card %d", k), col})
	}
	runs := make([]float64, rows) // sorted, every value three rows long
	zeros := make([]float64, rows)
	nans := make([]float64, rows)
	oneNaN := make([]float64, rows)
	signedZeros := make([]float64, rows)
	alternatingZeros := make([]float64, rows)
	for i := range runs {
		runs[i] = float64(i / 3)
		if r.Intn(10) == 0 {
			zeros[i] = r.NormFloat64() // distinct non-zeros in 90% zeros: OLE
		}
		nans[i] = math.Float64frombits(0x7FF8000000000000 | uint64(i)) // a payload per row
		oneNaN[i] = math.NaN()
		signedZeros[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
		alternatingZeros[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	return append(cases,
		plannerCase{"sorted runs of 3", runs},
		plannerCase{"90% zeros", zeros},
		plannerCase{"distinct NaNs", nans},
		plannerCase{"all one NaN", oneNaN},
		plannerCase{"mixed ±0", signedZeros},
		plannerCase{"alternating ±0", alternatingZeros},
	)
}

// TestSampledPlanMatchesExactPlanner: the planner, which settles a column
// as UC when a row sample of it is all distinct, gives every column the
// encoding the exact statistics choose — at cardinalities on both sides of
// each size boundary, on a sorted column of short runs (which a fixed-stride
// sample sees as all distinct), on a sparse column, and on NaNs and signed
// zeros — and the matrix decompresses to the input bit for bit: the planner
// keys values by their bits, so −0 is an entry of its own, not the +0 that
// OLE and RLE leave implicit, and a column of one NaN has one entry.
func TestSampledPlanMatchesExactPlanner(t *testing.T) {
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	r := rand.New(rand.NewSource(41))
	for _, rows := range []int{4095, 4096, 65536} {
		cases := plannerCases(r, rows)
		m := la.NewDense(rows, len(cases))
		for j, c := range cases {
			for i, v := range c.col {
				m.Set(i, j, v)
			}
		}
		before := mSampledUC.Value()
		cm := Compress(m, Options{})
		if mSampledUC.Value()-before < 2 {
			t.Fatalf("rows %d: %d columns settled by the sample; the all-distinct and NaN columns must be", rows, mSampledUC.Value()-before)
		}
		for _, g := range cm.Groups() {
			j := g.Cols()[0]
			st, _ := analyzeColumn(cases[j].col)
			if got, want := encodingOf(g), chooseEncoding(st, Options{}); got != want {
				t.Errorf("rows %d, %s: planner encoding %d, exact statistics choose %d", rows, cases[j].name, got, want)
			}
		}
		back := cm.Decompress()
		for i := 0; i < rows; i++ {
			for j, c := range cases {
				got, want := back.At(i, j), c.col[i]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows %d, %s: row %d decompresses to %v, want %v", rows, c.name, i, got, want)
				}
			}
		}
	}
}

// TestCompressAllocationBound: planning and encoding a co-coded block of the
// out-of-core shape allocates at most 1.5× the block's dense bytes — the
// groups it returns, with every column scan, code array and pair table
// drawn from recycled scratch. The first call warms the scratch; the bound
// is on the least of three later calls.
func TestCompressAllocationBound(t *testing.T) {
	x := blockMatrix(rand.New(rand.NewSource(73)), 4096)
	opts := Options{CoCode: true}
	Compress(x, opts)
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		Compress(x, opts)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	dense := uint64(8 * x.Rows() * x.Cols())
	if least > dense*3/2 {
		t.Fatalf("Compress allocates %d bytes for a %d-byte block (%.2f×); the bound is 1.5×", least, dense, float64(least)/float64(dense))
	}
}
