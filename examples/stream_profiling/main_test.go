package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRun runs the example at a small scale and checks the sketches against
// exact answers, within bounds that follow from their parameters:
//
//   - distinct counts: Profile's Flajolet–Martin sketch has 64
//     registers, standard error 0.78/√64 ≈ 0.1; allow four of them;
//   - medians: P² has no error parameter; the estimate must lie between the
//     exact 0.4 and 0.6 quantiles (P² interpolates between observed values,
//     so on a discrete column it can fall just short of the exact median);
//   - Count-Min: never below the exact count, and above it by at most ε·N.
func TestRun(t *testing.T) {
	const n = 20000
	var out bytes.Buffer
	if err := run(&out, n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CLA planner encodings") {
		t.Fatalf("no planner section in:\n%s", out.String())
	}

	pages, campaigns, latency := clickLog(n)
	for name, col := range map[string][]float64{"page_id": pages, "campaign": campaigns, "latency_ms": latency} {
		p, err := Profile(col)
		if err != nil {
			t.Fatal(err)
		}
		exact := float64(exactCard(col))
		if math.Abs(p.ApproxDistinct-exact) > 4*0.78/math.Sqrt(64)*exact {
			t.Errorf("%s: distinct ≈ %.0f, exact %.0f", name, p.ApproxDistinct, exact)
		}
		if lo, hi := exactQuantile(col, 0.4), exactQuantile(col, 0.6); p.ApproxMedian < lo || p.ApproxMedian > hi {
			t.Errorf("%s: median ≈ %v, outside the exact 0.4–0.6 quantiles [%v, %v]", name, p.ApproxMedian, lo, hi)
		}
	}

	cm, err := campaignSketch(campaigns)
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int]uint64{}
	for _, v := range campaigns {
		exact[int(v)]++
	}
	slack := uint64(math.Ceil(cmEpsilon * n))
	for c, want := range exact {
		if got := cm.Estimate(fmt.Sprint(c)); got < want || got > want+slack {
			t.Errorf("campaign %d: Count-Min estimate %d, exact %d, want within [exact, exact+%d]", c, got, want, slack)
		}
	}
}
