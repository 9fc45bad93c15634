// Command dmmlbench regenerates every experiment in EXPERIMENTS.md and
// prints the result tables.
//
// Usage:
//
//	dmmlbench                    # run everything at full scale
//	dmmlbench -quick             # 10x smaller workloads (CI-friendly)
//	dmmlbench -exp E1,E5         # only the named experiments
//	dmmlbench -snapshot out.json # also write per-experiment wall times as JSON
//	dmmlbench -metrics out.json  # also dump the engine metrics registry
//	dmmlbench -cpuprofile p.out  # write a pprof CPU profile of the run
//	dmmlbench -ooc-budget 8MB    # re-run the out-of-core experiments (E17)
//	                             # under a different buffer-pool budget
//
// -metrics enables the engine-wide metrics registry for the run and writes
// the full snapshot (counters, gauges, latency histograms from every
// instrumented layer: la, compress, pool, opt, paramserver, storage) as
// JSON — "-" writes to stdout. The CI bench guard consumes this dump
// together with the -snapshot wall times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dmml/internal/experiments"
	"dmml/internal/metrics"
	"dmml/internal/storage"
)

// snapshotEntry is one experiment's wall time, written by -snapshot in a
// stable JSON form so runs can be diffed across commits.
type snapshotEntry struct {
	ID string  `json:"id"`
	Ms float64 `json:"ms"`
}

func main() {
	// All work happens in run so deferred teardown (profile flushing) runs
	// before the process exits; os.Exit in main would skip it.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run at ~1/10 workload scale")
	expList := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	snapshot := flag.String("snapshot", "", "write per-experiment wall times (ms) to this JSON file")
	metricsOut := flag.String("metrics", "", "write the engine metrics registry as JSON to this file ('-' for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	oocBudget := flag.String("ooc-budget", "", "override the out-of-core experiments' buffer-pool budget (e.g. 8MB; default: dense footprint / 4)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dmmlbench:", err)
		return 1
	}

	if *oocBudget != "" {
		b, err := storage.ParseByteSize(*oocBudget)
		if err != nil {
			return fail(err)
		}
		experiments.SetOOCBudget(b)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmmlbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dmmlbench:", err)
			}
		}()
	}
	if *metricsOut != "" {
		metrics.Reset()
		metrics.Enable()
	}

	fns := map[string]func(bool) (experiments.Table, error){
		"E1":     experiments.E1FactorizedVsMaterialized,
		"E2":     experiments.E2HamletRule,
		"E3":     experiments.E3CompressionRatio,
		"E4":     experiments.E4CompressedMV,
		"E5":     experiments.E5Rewrites,
		"E6":     experiments.E6BismarckParallel,
		"E7":     experiments.E7ModelSearch,
		"E8":     experiments.E8ColumbusReuse,
		"E9":     experiments.E9ParamServer,
		"E10":    experiments.E10SparseVsDense,
		"E11":    experiments.E11BufferPool,
		"E12":    experiments.E12ReuseAcrossCV,
		"E13":    experiments.E13PlannerChoice,
		"E14":    experiments.E14FaultTolerance,
		"E15":    experiments.E15Fusion,
		"E17":    experiments.E17OutOfCoreTraining,
		"E18":    experiments.E18FactorizedSnowflake,
		"E-ABL1": experiments.EKMeansPruning,
		"E-ABL2": experiments.EColumnCoCoding,
	}

	ids := experiments.Order
	if *expList != "" {
		ids = nil
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			if _, ok := fns[id]; !ok {
				fmt.Fprintf(os.Stderr, "dmmlbench: unknown experiment %q\n", id)
				return 2
			}
			ids = append(ids, id)
		}
	}

	var times []snapshotEntry
	for _, id := range ids {
		start := time.Now()
		t, err := fns[id](*quick)
		elapsed := time.Since(start)
		fmt.Println(t)
		if err != nil {
			return fail(err)
		}
		times = append(times, snapshotEntry{ID: id, Ms: float64(elapsed.Microseconds()) / 1000})
	}

	if *snapshot != "" {
		data, err := json.MarshalIndent(times, "", "  ")
		if err != nil {
			return fail(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*snapshot, data, 0o644); err != nil {
			return fail(err)
		}
	}

	if *metricsOut != "" {
		var w io.Writer = os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := metrics.WriteJSON(w); err != nil {
			return fail(err)
		}
	}
	return 0
}
