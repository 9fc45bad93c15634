// Telemetry scenario: compressed linear algebra (CLA) over machine logs.
//
// Telemetry tables are full of low-cardinality, Zipf-skewed categorical
// columns — exactly the regime where dictionary compression shines. We
// compress a synthetic telemetry matrix, inspect the planner's per-column
// encoding choices, run linear algebra directly on the compressed form, and
// finish with k-means over the (loss-free) compressed data.
//
//	go run ./examples/telemetry_compression
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/ml"
	"dmml/internal/workload"
)

func main() {
	if err := run(os.Stdout, 500000); err != nil {
		log.Fatal(err)
	}
}

// run compresses n telemetry records and writes the footprints, the
// compressed-vs-dense MatVec check and a k-means summary to w.
func run(w io.Writer, n int) error {
	r := rand.New(rand.NewSource(11))

	// n telemetry records: status codes, device model, region, error class,
	// rack id, plus two continuous gauge columns.
	m := workload.TelemetryMatrix(r, n, []int{6, 40, 12, 9, 200}, 1.2)
	gauges := la.NewDense(n, 2)
	for i := 0; i < n; i++ {
		gauges.Set(i, 0, r.NormFloat64()*3+20) // temperature
		gauges.Set(i, 1, r.Float64()*100)      // utilization
	}
	full, err := la.HCat(m, gauges)
	if err != nil {
		return err
	}

	start := time.Now()
	cm := compress.Compress(full, compress.Options{CoCode: true})
	fmt.Fprintf(w, "compressed %dx%d in %v\n", n, full.Cols(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "dense footprint:      %8.1f MB\n", float64(cm.DenseSizeBytes())/1e6)
	fmt.Fprintf(w, "compressed footprint: %8.1f MB (ratio %.1fx)\n",
		float64(cm.SizeBytes())/1e6, cm.CompressionRatio())
	fmt.Fprintln(w, "column groups:", cm.GroupInfo())

	// Linear algebra directly over the compressed representation.
	v := make([]float64, full.Cols())
	for i := range v {
		v[i] = r.NormFloat64()
	}
	start = time.Now()
	mvC := cm.MatVec(v)
	tComp := time.Since(start)
	start = time.Now()
	mvD := la.MatVec(full, v)
	tDense := time.Since(start)
	maxDiff := 0.0
	for i := range mvC {
		if dlt := mvC[i] - mvD[i]; dlt > maxDiff {
			maxDiff = dlt
		} else if -dlt > maxDiff {
			maxDiff = -dlt
		}
	}
	fmt.Fprintf(w, "\nmatrix–vector: compressed %v vs dense %v (max |Δ| = %.2g)\n",
		tComp.Round(time.Microsecond), tDense.Round(time.Microsecond), maxDiff)

	// Cluster devices on a sample of the telemetry (decompression is exact).
	sample := cm.Decompress().Slice(0, min(n, 20000), 0, full.Cols())
	km := &ml.KMeans{K: 6, Seed: 3, Pruned: true}
	start = time.Now()
	if err := km.Fit(sample); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nk-means over decompressed sample: %d clusters in %v (%d iterations, %d distance evals)\n",
		km.K, time.Since(start).Round(time.Millisecond), km.Iters, km.DistEval)
	return nil
}
