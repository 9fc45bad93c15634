package compress

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmml/internal/la"
)

// mapAnalyzeColumn is analyzeColumn written over a map keyed by each value's
// bits, with +0 alone as the zero: the reference the open-addressed table
// must reproduce.
func mapAnalyzeColumn(col []float64) (colStats, colCode) {
	st := colStats{rows: len(col)}
	idx := make(map[uint64]int32, 16)
	cc := colCode{codes: make([]int32, len(col))}
	prev := int32(-1)
	inRun := false
	for i, v := range col {
		t, ok := idx[math.Float64bits(v)]
		if !ok {
			t = int32(len(cc.vals))
			idx[math.Float64bits(v)] = t
			cc.vals = append(cc.vals, v)
		}
		cc.codes[i] = t
		if math.Float64bits(v) != 0 {
			st.nzRows++
			if !inRun || t != prev {
				st.nzRuns++
			}
			inRun = true
		} else {
			inRun = false
		}
		prev = t
	}
	st.card = len(cc.vals)
	st.nzCard = st.card
	for _, v := range cc.vals {
		if math.Float64bits(v) == 0 {
			st.nzCard--
			break
		}
	}
	st.isConst = st.card == 1
	return st, cc
}

// TestAnalyzeColumnMatchesMapReference: on random columns mixing ±0, NaN,
// ±Inf, runs and cardinalities from 1 to every row distinct, the table gives
// the map's statistics, codes and dictionary, bit for bit.
func TestAnalyzeColumnMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}
	for trial := 0; trial < 300; trial++ {
		rows := 1 + r.Intn(3000)
		card := 1 + r.Intn(rows)
		if trial%5 == 0 {
			card = rows // high cardinality: every value fresh
		}
		specialShare := r.Float64() * 0.5
		col := make([]float64, rows)
		for i := range col {
			switch {
			case i > 0 && r.Float64() < 0.2:
				col[i] = col[i-1] // runs, for nzRuns
			case r.Float64() < specialShare:
				col[i] = special[r.Intn(len(special))]
			case trial%5 == 0:
				col[i] = r.NormFloat64()
			default:
				col[i] = float64(r.Intn(card)) / 7
			}
		}
		wantSt, wantCC := mapAnalyzeColumn(col)
		gotSt, gotCC := analyzeColumn(col)
		if gotSt != wantSt {
			t.Fatalf("trial %d: stats %+v, map reference %+v", trial, gotSt, wantSt)
		}
		if !slices.Equal(gotCC.codes, wantCC.codes) {
			t.Fatalf("trial %d: codes differ from the map reference's", trial)
		}
		if len(gotCC.vals) != len(wantCC.vals) {
			t.Fatalf("trial %d: %d values, map reference %d", trial, len(gotCC.vals), len(wantCC.vals))
		}
		for k := range wantCC.vals {
			if math.Float64bits(gotCC.vals[k]) != math.Float64bits(wantCC.vals[k]) {
				t.Fatalf("trial %d: value %d = %v, map reference %v", trial, k, gotCC.vals[k], wantCC.vals[k])
			}
		}
	}
}

// exhaustivePairs is the greedy pairwise co-coding search with every joint
// cardinality counted in full, through a map: the reference the early-exit
// search must reproduce.
func exhaustivePairs(m *la.Dense) [][]int {
	rows, cols := m.Dims()
	stats := make([]colStats, cols)
	codes := make([]colCode, cols)
	for j := range stats {
		stats[j], codes[j] = mapAnalyzeColumn(m.Col(j))
	}
	ddc := func(j int) bool { return chooseEncoding(stats[j], Options{}) == forceDDC }
	used := make([]bool, cols)
	var pairs [][]int
	for a := 0; a < cols; a++ {
		if used[a] || !ddc(a) {
			continue
		}
		bestB, bestGain := -1, 0
		sizeA, _ := stats[a].ddcSize()
		for b := a + 1; b < cols; b++ {
			if used[b] || !ddc(b) {
				continue
			}
			seen := map[[2]int32]bool{}
			for i, ca := range codes[a].codes {
				seen[[2]int32{ca, codes[b].codes[i]}] = true
			}
			jc := len(seen)
			if jc > maxDDCCard {
				continue
			}
			codeBytes := 1
			if jc > 256 {
				codeBytes = 2
			}
			sizeB, _ := stats[b].ddcSize()
			if gain := sizeA + sizeB - (rows*codeBytes + jc*16); gain > bestGain {
				bestGain, bestB = gain, b
			}
		}
		if bestB >= 0 {
			pairs = append(pairs, []int{a, bestB})
			used[a], used[bestB] = true, true
		}
	}
	return pairs
}

// TestPairSearchMatchesExhaustiveCount: the co-coding planner, which stops
// counting a pair's joint cardinality once the pair cannot beat the best
// gain so far, picks exactly the pairs of the exhaustive count — on the
// out-of-core block shape, on mixed encodings, and on correlated columns
// whose joint codes need two bytes or overflow the dense pair table.
func TestPairSearchMatchesExhaustiveCount(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	wide := la.NewDense(4096, 8)
	for i := 0; i < 4096; i++ {
		a, b := r.Intn(300), r.Intn(1100)
		wide.Set(i, 0, float64(a))
		wide.Set(i, 1, float64(a%150)) // joint card 300: two-byte codes win
		wide.Set(i, 2, float64(b))
		wide.Set(i, 3, float64(b+1)/3) // 1100 × 1100 pairs: past the dense table
		wide.Set(i, 4, float64(r.Intn(3)))
		wide.Set(i, 5, float64(r.Intn(40)))
		wide.Set(i, 6, float64(b%7))
		wide.Set(i, 7, float64(r.Intn(2000)))
	}
	for name, m := range map[string]*la.Dense{
		"block":      blockMatrix(r, 4096),
		"wide":       wide,
		"blockShort": blockMatrix(r, 96),
	} {
		want := exhaustivePairs(m)
		var got [][]int
		for _, g := range Compress(m, Options{CoCode: true}).Groups() {
			if cols := g.Cols(); len(cols) == 2 {
				got = append(got, cols)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the exhaustive search co-codes nothing; the case is vacuous", name)
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("%s: planner pairs %v, exhaustive count %v", name, got, want)
		}
	}
}

// TestJointCardinalityLimit: under any limit the count is exact when the
// joint cardinality is within it and above the limit when it is not, on
// both the dense pair table and the map. One seen table serves every count,
// as it serves a whole co-coding search.
func TestJointCardinalityLimit(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	var table []bool
	for trial := 0; trial < 40; trial++ {
		rows := 1 + r.Intn(2000)
		cardA, cardB := 1+r.Intn(40), 1+r.Intn(40)
		if trial%4 == 0 {
			cardA, cardB = 1200+r.Intn(800), 1200+r.Intn(800) // the map
		}
		a, b := make([]float64, rows), make([]float64, rows)
		for i := range a {
			a[i], b[i] = float64(r.Intn(cardA)), float64(r.Intn(cardB))
		}
		_, ca := analyzeColumn(a)
		_, cb := analyzeColumn(b)
		seen := map[[2]int32]bool{}
		for i := range ca.codes {
			seen[[2]int32{ca.codes[i], cb.codes[i]}] = true
		}
		exact := len(seen)
		if got := jointCardinality(&ca, &cb, math.MaxInt, &table); got != exact {
			t.Fatalf("trial %d: %d distinct pairs without a limit, want %d", trial, got, exact)
		}
		for _, limit := range []int{-1, 0, exact / 2, exact - 1, exact, exact + 3} {
			got := jointCardinality(&ca, &cb, limit, &table)
			if (exact <= limit && got != exact) || (exact > limit && got <= limit) {
				t.Fatalf("trial %d: limit %d gives %d; joint cardinality is %d", trial, limit, got, exact)
			}
		}
	}
}

// TestWinningJointCard: the limit is the largest DDC-addressable joint
// cardinality whose pair group is under the byte budget.
func TestWinningJointCard(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 96, 4096, 70000} {
		for budget := -50; budget < 2*rows+16*maxDDCCard+100; budget += 1 + budget/97 + rows/50 {
			c := winningJointCard(rows, budget)
			if c >= 0 && (c > maxDDCCard || jointDDCSize(rows, c) >= budget) {
				t.Fatalf("rows %d budget %d: limit %d does not win", rows, budget, c)
			}
			if c < maxDDCCard && jointDDCSize(rows, c+1) < budget {
				t.Fatalf("rows %d budget %d: limit %d, but %d wins too", rows, budget, c, c+1)
			}
		}
	}
}
