// Stream profiling scenario: one-pass sketches drive physical decisions.
//
// Before training, an ML-over-data system profiles its input: approximate
// distinct counts tell the compression planner which columns will
// dictionary-encode, heavy-hitter sketches find the dominant categories, and
// streaming quantiles calibrate binning — all in a single pass with bounded
// memory. This example profiles a synthetic click log, compares the sketch
// estimates against exact answers, and shows the profile agreeing with the
// CLA planner's actual encoding choices. The sketches are this example's
// own code, in sketch.go.
//
//	go run ./examples/stream_profiling
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/workload"
)

func main() {
	if err := run(os.Stdout, 400000); err != nil {
		log.Fatal(err)
	}
}

// The Count-Min sketch's error bound ε and failure probability δ: an
// estimate overcounts by at most ε·N with probability 1−δ.
const cmEpsilon, cmDelta = 0.001, 0.01

// clickLog generates n clicks: page id (Zipf, high card), campaign (low
// card), latency ms (continuous).
func clickLog(n int) (pages, campaigns, latency []float64) {
	r := rand.New(rand.NewSource(31))
	pages = workload.ZipfColumn(r, n, 20000, 1.3)
	campaigns = workload.ZipfColumn(r, n, 12, 0.8)
	latency = make([]float64, n)
	for i := range latency {
		latency[i] = 20 + r.ExpFloat64()*35
	}
	return pages, campaigns, latency
}

// campaignSketch counts clicks per campaign in a Count-Min sketch.
func campaignSketch(campaigns []float64) (*CountMin, error) {
	cm, err := NewCountMin(cmEpsilon, cmDelta)
	if err != nil {
		return nil, err
	}
	for _, v := range campaigns {
		cm.Add(fmt.Sprint(int(v)), 1)
	}
	return cm, nil
}

// run profiles an n-click log and writes the report to w.
func run(w io.Writer, n int) error {
	pages, campaigns, latency := clickLog(n)
	cols := map[string][]float64{
		"page_id":    pages,
		"campaign":   campaigns,
		"latency_ms": latency,
	}
	names := []string{"page_id", "campaign", "latency_ms"}

	fmt.Fprintln(w, "one-pass column profiles (sketch vs exact):")
	for _, name := range names {
		col := cols[name]
		p, err := Profile(col)
		if err != nil {
			return err
		}
		exactDistinct := exactCard(col)
		exactMedian := exactQuantile(col, 0.5)
		fmt.Fprintf(w, "  %-10s  distinct ≈ %8.0f (exact %6d)   median ≈ %7.2f (exact %7.2f)   mean %7.2f ± %.2f\n",
			name, p.ApproxDistinct, exactDistinct, p.ApproxMedian, exactMedian, p.Mean, p.Std)
	}

	// Heavy hitters on the campaign column with a Count-Min sketch.
	cm, err := campaignSketch(campaigns)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncount-min sketch (%d KB) campaign frequencies:\n", cm.SizeBytes()/1024)
	for c := 0; c < 3; c++ {
		fmt.Fprintf(w, "  campaign %d ≈ %d clicks\n", c, cm.Estimate(fmt.Sprint(c)))
	}

	// The profile predicts compressibility; confirm with the CLA planner.
	m := la.NewDense(n, 3)
	for i := 0; i < n; i++ {
		m.Set(i, 0, pages[i])
		m.Set(i, 1, campaigns[i])
		m.Set(i, 2, latency[i])
	}
	cmpr := compress.Compress(m, compress.Options{})
	fmt.Fprintf(w, "\nCLA planner encodings (profile said: page_id medium-card, campaign low-card, latency continuous):\n")
	fmt.Fprintf(w, "  groups: %v\n", cmpr.GroupInfo())
	fmt.Fprintf(w, "  overall ratio: %.1fx (%.1f MB → %.1f MB)\n",
		cmpr.CompressionRatio(),
		float64(cmpr.DenseSizeBytes())/1e6, float64(cmpr.SizeBytes())/1e6)
	return nil
}

func exactCard(col []float64) int {
	seen := map[float64]struct{}{}
	for _, v := range col {
		seen[v] = struct{}{}
	}
	return len(seen)
}

func exactQuantile(col []float64, p float64) float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	return sorted[int(p*float64(len(sorted)))]
}
