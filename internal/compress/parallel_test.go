package compress

// Equivalence properties for the parallel compressed-LA paths: the pooled
// MatVec/VecMat/Gram/Decompress and the parallel planner must agree with the
// dense equivalents at GOMAXPROCS=1 and GOMAXPROCS=N, and the Into variants
// must reach a zero-allocation steady state in the serial regime.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func eachProcs(f func()) {
	withGOMAXPROCS(1, f)
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	withGOMAXPROCS(n, f)
}

// forceParallel lowers the work cutoff so even test-sized matrices take the
// pool paths, restoring it on cleanup.
func forceParallel(t *testing.T) {
	old := compressParallelMinWork
	compressParallelMinWork = 1
	t.Cleanup(func() { compressParallelMinWork = old })
}

func TestParallelOpsMatchDense(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(60))
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows := 50 + rr.Intn(400)
		m := mixedMatrix(rr, rows)
		v := vecOf(rr, m.Cols())
		x := vecOf(rr, rows)
		wantMV := la.MatVec(m, v)
		wantVM := la.VecMat(x, m)
		wantGram := la.Gram(m)
		tol := 1e-9 * float64(rows)

		for _, opts := range []Options{{}, {CoCode: true}} {
			c := Compress(m, opts)
			if !c.Decompress().Equal(m, 0) {
				t.Logf("decompress round trip failed at rows=%d opts=%+v", rows, opts)
				return false
			}
			gotMV := c.MatVec(v)
			for i := range wantMV {
				if math.Abs(gotMV[i]-wantMV[i]) > tol {
					t.Logf("MatVec[%d] off by %g", i, gotMV[i]-wantMV[i])
					return false
				}
			}
			gotVM := c.VecMat(x)
			for j := range wantVM {
				if math.Abs(gotVM[j]-wantVM[j]) > tol {
					t.Logf("VecMat[%d] off by %g", j, gotVM[j]-wantVM[j])
					return false
				}
			}
			gram := la.NewDense(m.Cols(), m.Cols())
			c.GramAccum(gram)
			if !gram.Equal(wantGram, tol) {
				t.Logf("Gram mismatch at rows=%d opts=%+v", rows, opts)
				return false
			}
		}
		return true
	}
	eachProcs(func() {
		if err := quick.Check(prop, &quick.Config{MaxCount: 10, Rand: r}); err != nil {
			t.Error(err)
		}
	})
}

// TestParallelPlannerDeterministic: the pooled planner must produce the same
// partition and encodings regardless of worker count.
func TestParallelPlannerDeterministic(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(61))
	m := mixedMatrix(r, 600)
	var serialInfo []string
	withGOMAXPROCS(1, func() {
		serialInfo = Compress(m, Options{CoCode: true}).GroupInfo()
	})
	n := runtime.NumCPU()
	if n < 4 {
		n = 4
	}
	withGOMAXPROCS(n, func() {
		got := Compress(m, Options{CoCode: true}).GroupInfo()
		if len(got) != len(serialInfo) {
			t.Fatalf("group count differs: %v vs %v", got, serialInfo)
		}
		for i := range got {
			if got[i] != serialInfo[i] {
				t.Fatalf("group %d differs: %q vs %q", i, got[i], serialInfo[i])
			}
		}
	})
}

// blockMatrix has the benchmark's out-of-core block shape: 4096 rows of 32
// Zipf-categorical columns (one-byte DDC) and 8 Gaussian ones (UC), 40
// column groups over the parallel cutoff.
func blockMatrix(r *rand.Rand, rows int) *la.Dense {
	cards := []int{
		8, 16, 4, 32, 64, 5, 9, 12, 3, 7, 24, 48, 6, 10, 2, 20,
		14, 28, 11, 40, 18, 3, 5, 36, 9, 22, 4, 13, 56, 6, 26, 8,
	}
	cat := workload.TelemetryMatrix(r, rows, cards, 1)
	m := la.NewDense(rows, len(cards)+8)
	for i := 0; i < rows; i++ {
		row := m.RowView(i)
		copy(row, cat.RowView(i))
		for j := len(cards); j < len(row); j++ {
			row[j] = r.NormFloat64()
		}
	}
	return m
}

// TestCompressedIntoZeroAllocSteadyState: once the scratch pool is warm, the
// Into variants, VecMatAccum and the one-pass LossGradAccum must not
// allocate — the property the E4 hot loop and the out-of-core block step
// depend on — both serially and, at the block shape, with the ranges and
// groups fanned out through the pool.
func TestCompressedIntoZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	small := Compress(mixedMatrix(r, 400), Options{CoCode: true})
	block := Compress(blockMatrix(r, 4096), Options{})
	for _, tc := range []struct {
		name  string
		c     *Matrix
		procs []int
	}{{"400x4", small, []int{1}}, {"block", block, []int{1, 2}}} {
		c := tc.c
		v := vecOf(r, c.Cols())
		x := vecOf(r, c.Rows())
		mvDst := make([]float64, c.Rows())
		vmDst := make([]float64, c.Cols())
		derivs := make([]float64, c.Rows())
		y := make([]float64, c.Rows())
		for i := range y {
			y[i] = float64(2*(i%2) - 1)
		}
		for _, p := range tc.procs {
			withGOMAXPROCS(p, func() {
				if tc.name == "block" && p > 1 && !c.parallel() {
					t.Fatalf("%s: %d rows × %d groups is under the parallel cutoff %d", tc.name, c.Rows(), len(c.Groups()), compressParallelMinWork)
				}
				c.MatVecInto(mvDst, v) // warm the scratch pool
				c.VecMatInto(vmDst, x)
				c.LossGradAccum(vmDst, mvDst, derivs, v, y, la.LogisticLossInto)
				for name, f := range map[string]func(){
					"MatVecInto":    func() { c.MatVecInto(mvDst, v) },
					"VecMatInto":    func() { c.VecMatInto(vmDst, x) },
					"VecMatAccum":   func() { c.VecMatAccum(vmDst, x) },
					"LossGradAccum": func() { c.LossGradAccum(vmDst, mvDst, derivs, v, y, la.LogisticLossInto) },
				} {
					if a := testing.AllocsPerRun(50, f); a != 0 {
						t.Errorf("%s GOMAXPROCS=%d: %s allocates %v per run, want 0", tc.name, p, name, a)
					}
				}
			})
		}
	}
}

// TestDecodePageAllocsIndependentOfRows: decoding aliases every row-sized
// array onto the page, so a block of 4096 rows decodes with exactly the
// allocations of one of 512 rows with the same groups and dictionaries, and
// as many bytes. (An OLE or RLE group still allocates one list header per
// dictionary entry, so the last column cycles through the same 300 values
// at both sizes: two-byte codes under ForceDDC.)
func TestDecodePageAllocsIndependentOfRows(t *testing.T) {
	for _, opts := range []Options{{}, {Force: ForceDDC}, {Force: ForceOLE}, {Force: ForceRLE}, {Force: ForceUC}} {
		var allocs, bytes []float64
		var info []string
		for _, rows := range []int{512, 4096} {
			m := mixedMatrix(rand.New(rand.NewSource(64)), rows)
			for i := 0; i < rows; i++ {
				m.Set(i, 3, float64(i%300))
			}
			c := Compress(m, opts)
			page := encodePage(t, c)
			decode := func() {
				if _, err := DecodePage(page); err != nil {
					t.Fatal(err)
				}
			}
			allocs = append(allocs, testing.AllocsPerRun(20, decode))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				decode()
			}
			runtime.ReadMemStats(&after)
			bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/20)
			info = append(info, strings.Join(c.GroupInfo(), " "))
		}
		if info[0] != info[1] {
			t.Fatalf("opts %+v: groups differ between the sizes: %q vs %q", opts, info[0], info[1])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("opts %+v (%s): DecodePage allocates %v times at 512 rows, %v at 4096", opts, info[0], allocs[0], allocs[1])
		}
		// A little slack for whatever else the runtime allocates meanwhile;
		// unpacking the 3584 extra rows of even one one-byte column is more.
		if bytes[1] > bytes[0]+512 {
			t.Errorf("opts %+v (%s): DecodePage allocates %.0f bytes at 512 rows, %.0f at 4096", opts, info[0], bytes[0], bytes[1])
		}
	}
}

// matVecSpans is MatVecInto's parallel arithmetic with the rows cut into
// span-row ranges, run one after another.
func matVecSpans(c *Matrix, v []float64, span int) []float64 {
	dst := make([]float64, c.Rows())
	k := c.matVecCall(dst, v)
	for lo := 0; lo < c.Rows(); lo += span {
		k.matVecRows(lo, min(lo+span, c.Rows()))
	}
	k.put()
	return dst
}

// TestRowRangesMatchSerialBits: for every encoding, over the parallel
// cutoff, MatVecInto on four cores and every range split — including spans
// that cut through OLE offset lists and RLE runs — give the serial kernel's
// bits, and so does VecMatInto with its groups fanned out.
func TestRowRangesMatchSerialBits(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	rows := compressParallelMinWork/4 + 1001 // four columns: over the cutoff
	m := mixedMatrix(r, rows)
	for i := 0; i < rows; i++ {
		// 1000 levels: two-byte DDC codes, and short enough OLE and RLE
		// entry lists that one-row ranges stay cheap.
		m.Set(i, 3, float64(r.Intn(1000))/7)
	}
	v := vecOf(r, m.Cols())
	x := vecOf(r, rows)
	kinds := map[string]bool{}
	for _, opts := range []Options{{Force: ForceDDC}, {Force: ForceOLE}, {Force: ForceRLE}, {Force: ForceUC}} {
		c := Compress(m, opts)
		cutRun := false
		for _, g := range c.Groups() {
			kinds[g.Encoding()] = true
			if rg, ok := g.(*RLEGroup); ok {
				for _, rs := range rg.runs {
					for k := 0; k < len(rs); k += 2 {
						cutRun = cutRun || rs[k]/7 != (rs[k]+rs[k+1]-1)/7
					}
				}
			}
		}
		if opts.Force == ForceRLE && !cutRun {
			t.Fatal("no RLE run crosses a 7-row range boundary; test is vacuous")
		}
		var wantMV, wantVM []float64
		withGOMAXPROCS(1, func() {
			wantMV, wantVM = c.MatVec(v), c.VecMat(x)
		})
		check := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s: [%d] = %x, serial %x", c.GroupInfo(), what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		withGOMAXPROCS(4, func() {
			if !c.parallel() {
				t.Fatalf("%v: under the parallel cutoff", c.GroupInfo())
			}
			check("MatVecInto", c.MatVec(v), wantMV)
			check("VecMatInto", c.VecMat(x), wantVM)
		})
		for _, span := range []int{1, 3, 7, 64, 1000, rows} {
			check(fmt.Sprintf("span %d", span), matVecSpans(c, v, span), wantMV)
		}
	}
	for _, enc := range []string{"DDC1", "DDC2", "OLE", "RLE", "UC"} {
		if !kinds[enc] {
			t.Errorf("no %s group among %v", enc, kinds)
		}
	}
}

// TestCompressedGDBitReproducible: with compressParallelMinWork forced to 1,
// gradient descent over a small compressed matrix of 16 column groups runs
// MatVecInto as one-row ranges and VecMatAccum as one pool chunk per group,
// and returns the same W and History bits on every repeat at GOMAXPROCS 1, 2
// and 4.
func TestCompressedGDBitReproducible(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(63))
	cards := make([]int, 16)
	for j := range cards {
		cards[j] = 2 + j
	}
	m := workload.TelemetryMatrix(r, 500, cards, 1)
	c := Compress(m, Options{})
	k := c.matVecCall(make([]float64, c.Rows()), make([]float64, c.Cols()))
	g, span := len(c.Groups()), k.span
	k.put()
	if g < 2 || span != 1 {
		t.Fatalf("%d column groups and %d-row MatVec ranges, want several groups and one-row ranges", g, span)
	}
	y := make([]float64, m.Rows())
	for i := range y {
		y[i] = float64(2*r.Intn(2) - 1)
	}
	cfg := opt.GDConfig{Step: 0.5, MaxIter: 5, Backtracking: true}
	var first *opt.GDResult
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(procs, func() {
			for rep := 0; rep < 20; rep++ {
				res, err := opt.GradientDescent(c, y, opt.Logistic{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = res
					continue
				}
				for j := range res.W {
					if math.Float64bits(res.W[j]) != math.Float64bits(first.W[j]) {
						t.Fatalf("GOMAXPROCS=%d rep %d: W[%d] = %x, first run %x", procs, rep, j, math.Float64bits(res.W[j]), math.Float64bits(first.W[j]))
					}
				}
				for j := range res.History {
					if math.Float64bits(res.History[j]) != math.Float64bits(first.History[j]) {
						t.Fatalf("GOMAXPROCS=%d rep %d: History[%d] = %x, first run %x", procs, rep, j, math.Float64bits(res.History[j]), math.Float64bits(first.History[j]))
					}
				}
			}
		})
	}
}
