package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
)

// The per-group whole-matrix kernels each group carried before every group
// kept vecMatRange as its one vector–matrix kernel, kept here as the
// references VecMatAccum, VecMatInto, GramAccum and ColSumsAccum are pinned
// to.

// refVecMatAccum adds, for every column j of g, Σ_i x[i]·X[i,j] into out[j].
func refVecMatAccum(g Group, out, x []float64) {
	switch g := g.(type) {
	case *DDCGroup:
		acc := make([]float64, g.d.numEntries())
		if g.codes8 != nil {
			for i, c := range g.codes8 {
				acc[c] += x[i]
			}
		} else {
			for i, c := range g.codes {
				acc[c] += x[i]
			}
		}
		g.d.scatterWeighted(out, acc)
	case *OLEGroup:
		w := len(g.d.cols)
		for t, offs := range g.offsets {
			var s float64
			for _, i := range offs {
				s += x[i]
			}
			if s == 0 {
				continue
			}
			e := g.d.entry(t)
			for j := 0; j < w; j++ {
				out[g.d.cols[j]] += s * e[j]
			}
		}
	case *RLEGroup:
		w := len(g.d.cols)
		for t, rs := range g.runs {
			var s float64
			for k := 0; k < len(rs); k += 2 {
				start, length := int(rs[k]), int(rs[k+1])
				for i := start; i < start+length; i++ {
					s += x[i]
				}
			}
			if s == 0 {
				continue
			}
			e := g.d.entry(t)
			for j := 0; j < w; j++ {
				out[g.d.cols[j]] += s * e[j]
			}
		}
	case *UCGroup:
		out[g.cols[0]] += la.Dot(x, g.data)
	default:
		panic(fmt.Sprintf("refVecMatAccum: group type %T", g))
	}
}

// refColSumsAccum adds g's per-column sums into out.
func refColSumsAccum(g Group, out []float64) {
	switch g := g.(type) {
	case *DDCGroup:
		counts := make([]float64, g.d.numEntries())
		if g.codes8 != nil {
			for _, c := range g.codes8 {
				counts[c]++
			}
		} else {
			for _, c := range g.codes {
				counts[c]++
			}
		}
		g.d.scatterWeighted(out, counts)
	case *OLEGroup:
		w := len(g.d.cols)
		for t, offs := range g.offsets {
			n := float64(len(offs))
			e := g.d.entry(t)
			for j := 0; j < w; j++ {
				out[g.d.cols[j]] += n * e[j]
			}
		}
	case *RLEGroup:
		w := len(g.d.cols)
		for t, rs := range g.runs {
			var n int32
			for k := 1; k < len(rs); k += 2 {
				n += rs[k]
			}
			e := g.d.entry(t)
			for j := 0; j < w; j++ {
				out[g.d.cols[j]] += float64(n) * e[j]
			}
		}
	case *UCGroup:
		out[g.cols[0]] += la.SumVec(g.data)
	default:
		panic(fmt.Sprintf("refColSumsAccum: group type %T", g))
	}
}

// sameValues fails unless got[i] == want[i] for every i.
func sameValues(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestVecMatKernelsMatchReference: for every encoding — forced DDC (one- and
// two-byte codes), OLE, RLE and UC, plus co-coded groups — VecMatInto,
// VecMatAccum and GramAccum equal the per-group reference kernels run in
// group order (==), under the pool's gate and over it, at GOMAXPROCS 1, 2
// and 4, where the groups run on the pool. ColSumsAccum is the reference's
// to 1e-12 relative: over a UC column it sums in Dot's order, not SumVec's.
func TestVecMatKernelsMatchReference(t *testing.T) {
	for _, rows := range []int{501, 8*4096 + 1003} {
		for name, c := range lossGradCases(t, rows) {
			r := rand.New(rand.NewSource(67))
			x, acc0 := vecOf(r, rows), vecOf(r, c.Cols())
			wantVM := make([]float64, c.Cols())
			wantAcc := append([]float64(nil), acc0...)
			wantSums := make([]float64, c.Cols())
			for _, g := range c.Groups() {
				refVecMatAccum(g, wantVM, x)
				refVecMatAccum(g, wantAcc, x)
				refColSumsAccum(g, wantSums)
			}
			wantGram := la.NewDense(c.Cols(), c.Cols())
			ej := make([]float64, c.Cols())
			col := make([]float64, rows)
			for j := 0; j < c.Cols(); j++ {
				c.colInto(col, ej, j)
				for _, g := range c.Groups() {
					refVecMatAccum(g, wantGram.RowView(j), col)
				}
			}
			scale := 0.0
			for _, s := range wantSums {
				scale = max(scale, math.Abs(s))
			}
			for _, p := range []int{1, 2, 4} {
				withGOMAXPROCS(p, func() {
					what := fmt.Sprintf("%s %d rows GOMAXPROCS=%d", name, rows, p)
					if rows > 501 && p > 1 && !c.parallel() {
						t.Fatalf("%s: under the pool's gate", what)
					}
					sameValues(t, what+" VecMatInto", c.VecMat(x), wantVM)
					acc := append([]float64(nil), acc0...)
					c.VecMatAccum(acc, x)
					sameValues(t, what+" VecMatAccum", acc, wantAcc)
					gram := la.NewDense(c.Cols(), c.Cols())
					c.GramAccum(gram)
					sameValues(t, what+" GramAccum", gram.RawData(), wantGram.RawData())
					sums := c.ColSums()
					for j := range sums {
						if d := math.Abs(sums[j] - wantSums[j]); d > 1e-12*scale {
							t.Fatalf("%s ColSumsAccum[%d] = %v, reference %v", what, j, sums[j], wantSums[j])
						}
					}
				})
			}
		}
	}
}

// TestUncompressedIsForcedUC: Uncompressed builds, without planning, the
// matrix Compress builds with every column forced to UC, page word for page
// word.
func TestUncompressedIsForcedUC(t *testing.T) {
	m := mixedMatrix(rand.New(rand.NewSource(66)), 301)
	got, want := encodePage(t, Uncompressed(m)), encodePage(t, Compress(m, Options{force: forceUC}))
	if len(got) != len(want) {
		t.Fatalf("page of %d words, forced UC %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("word %d = %v, forced UC %v", i, got[i], want[i])
		}
	}
}
