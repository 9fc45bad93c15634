// Command dmmlbench regenerates every experiment in EXPERIMENTS.md and
// prints the result tables.
//
// Usage:
//
//	dmmlbench                    # run everything at full scale
//	dmmlbench -quick             # 10x smaller workloads (CI-friendly)
//	dmmlbench -exp E1,E5         # only the named experiments
//	dmmlbench -metrics out.json  # also dump the engine metrics registry
//	dmmlbench -cpuprofile p.out  # write a pprof CPU profile of the run
//
// -metrics enables the engine-wide metrics registry for the run and writes
// the full snapshot (counters, gauges, latency histograms from every
// instrumented layer: la, compress, pool, opt, paramserver, storage) as
// JSON — "-" writes to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"dmml/internal/experiments"
	"dmml/internal/metrics"
)

func main() {
	// All work happens in run so deferred teardown (profile flushing) runs
	// before the process exits; os.Exit in main would skip it.
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "run at ~1/10 workload scale")
	expList := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	metricsOut := flag.String("metrics", "", "write the engine metrics registry as JSON to this file ('-' for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dmmlbench:", err)
		return 1
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

	exps := experiments.All
	if *expList != "" {
		exps = nil
		for _, id := range strings.Split(*expList, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "dmmlbench: unknown experiment %q\n", id)
				return 2
			}
			exps = append(exps, experiments.All[i])
		}
	}

	for _, e := range exps {
		t, err := e.Run(*quick)
		fmt.Println(t)
		if err != nil {
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
