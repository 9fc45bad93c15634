package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dmml/internal/workload"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cm, err := NewCountMin(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(400))
	truth := map[string]uint64{}
	for i := 0; i < 20000; i++ {
		item := fmt.Sprintf("item-%d", r.Intn(500))
		cm.Add(item, 1)
		truth[item]++
	}
	if cm.total != 20000 {
		t.Fatalf("total = %d", cm.total)
	}
	maxErr := uint64(0)
	for item, want := range truth {
		got := cm.Estimate(item)
		if got < want {
			t.Fatalf("undercount for %s: %d < %d", item, got, want)
		}
		if got-want > maxErr {
			maxErr = got - want
		}
	}
	// ε=0.01, N=20000 → error bound εN = 200 w.h.p.
	if maxErr > 200 {
		t.Fatalf("max overcount = %d, beyond εN", maxErr)
	}
	// Heavy hitters stand out from never-seen items.
	if cm.Estimate("never-seen") > 200 {
		t.Fatalf("phantom count %d", cm.Estimate("never-seen"))
	}
}

func TestCountMinSkewedHeavyHitters(t *testing.T) {
	cm, _ := NewCountMin(0.005, 0.01)
	r := rand.New(rand.NewSource(401))
	codes := workload.Zipf(r, 50000, 1000, 1.5)
	truth := map[int]uint64{}
	for _, c := range codes {
		cm.Add(fmt.Sprint(c), 1)
		truth[c]++
	}
	// The top item's estimate is within the bound of its true count.
	top, topCount := 0, uint64(0)
	for c, n := range truth {
		if n > topCount {
			top, topCount = c, n
		}
	}
	est := cm.Estimate(fmt.Sprint(top))
	if est < topCount || est > topCount+250 {
		t.Fatalf("heavy hitter est %d, true %d", est, topCount)
	}
}

func TestCountMinValidation(t *testing.T) {
	for _, pair := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}} {
		if _, err := NewCountMin(pair[0], pair[1]); err == nil {
			t.Fatalf("want error for eps=%v delta=%v", pair[0], pair[1])
		}
	}
}

func TestFMEstimatesDistincts(t *testing.T) {
	for _, trueCard := range []int{100, 1000, 50000} {
		fm, err := NewFM(64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trueCard; i++ {
			// Each item appears multiple times; distinct count unaffected.
			for rep := 0; rep < 3; rep++ {
				fm.Add(fmt.Sprintf("key-%d", i))
			}
		}
		got := fm.Estimate()
		if got < float64(trueCard)/2 || got > float64(trueCard)*2 {
			t.Fatalf("card %d estimated as %v (off by >2x)", trueCard, got)
		}
	}
}

func TestFMValidation(t *testing.T) {
	for _, m := range []int{0, 3, 12} {
		if _, err := NewFM(m); err == nil {
			t.Fatalf("want error for m=%d", m)
		}
	}
}

func TestP2QuantileAgainstExact(t *testing.T) {
	r := rand.New(rand.NewSource(402))
	for _, p := range []float64{0.1, 0.5, 0.9} {
		q, err := NewP2Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 50000)
		for i := range vals {
			vals[i] = r.NormFloat64()*10 + 100
			q.Add(vals[i])
		}
		sort.Float64s(vals)
		exact := vals[int(p*float64(len(vals)))]
		got := q.Estimate()
		// Normal(100,10): quantiles within a small absolute band.
		if math.Abs(got-exact) > 0.5 {
			t.Fatalf("p=%v: estimate %v, exact %v", p, got, exact)
		}
		if q.n != 50000 {
			t.Fatalf("count = %d", q.n)
		}
	}
}

func TestP2QuantileSmallStreams(t *testing.T) {
	q, _ := NewP2Quantile(0.5)
	if !math.IsNaN(q.Estimate()) {
		t.Fatal("empty estimate should be NaN")
	}
	for _, v := range []float64{5, 1, 3} {
		q.Add(v)
	}
	if got := q.Estimate(); got != 3 {
		t.Fatalf("median of {1,3,5} = %v", got)
	}
	if _, err := NewP2Quantile(0); err == nil {
		t.Fatal("want p range error")
	}
	if _, err := NewP2Quantile(1); err == nil {
		t.Fatal("want p range error")
	}
}

func TestProfile(t *testing.T) {
	r := rand.New(rand.NewSource(403))
	n := 30000
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(r.Intn(50)) // 50 distinct values
	}
	p, err := Profile(col)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != n {
		t.Fatalf("count = %d", p.Count)
	}
	if p.Min != 0 || p.Max != 49 {
		t.Fatalf("min/max = %v/%v", p.Min, p.Max)
	}
	if math.Abs(p.Mean-24.5) > 0.5 {
		t.Fatalf("mean = %v", p.Mean)
	}
	// Uniform(0..49) std ≈ 14.43.
	if math.Abs(p.Std-14.43) > 0.5 {
		t.Fatalf("std = %v", p.Std)
	}
	if p.ApproxDistinct < 25 || p.ApproxDistinct > 100 {
		t.Fatalf("distinct ≈ %v, want ~50", p.ApproxDistinct)
	}
	if math.Abs(p.ApproxMedian-24.5) > 2 {
		t.Fatalf("median ≈ %v", p.ApproxMedian)
	}
	if _, err := Profile(nil); err == nil {
		t.Fatal("want empty column error")
	}
}

func TestCountMinMemoryBounded(t *testing.T) {
	cm, _ := NewCountMin(0.001, 0.01)
	if cm.SizeBytes() > 8*3000*5 {
		t.Fatalf("sketch uses %d bytes", cm.SizeBytes())
	}
}
