// Command dmmlperf is the repository's benchmark: one foreground process per
// workload that drives only the production paths through their public
// functions, checks every output against an independent reference, and prints
// every metric by name with its unit. See ../README.md.
//
//	dmmlperf -workload <name> -seed <n> -seconds <s> -trace <0|1> [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dmml/bench/trace"
	"dmml/internal/metrics"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool
	smoke    bool   // tiny inputs: every workload under a second
	outDir   string // traces and the run's temp dir go here
}

// setupsPerRun is how often a run sets the workload up; setup_s is the median.
const setupsPerRun = 3

// measurement is what one timed phase observed.
type measurement struct {
	attempted, failed int64
	latencyMs         float64 // per operation, the end-to-end figure; see endToEnd
	p50ms             float64 // serving only: the median, which on the closed loop is not latencyMs
	p95ms, p99ms      float64 // per-layer only: on two shared cores the tail does not repeat within its bound (p99: serving only)
	throughput        float64
	elapsed           time.Duration
	lines             []string    // human-readable detail: counts per phase, informational percentiles
	outputs           [][]float64 // training: each job's result, checked by verify
	lagP99us          float64     // open loop: how late the generator sent
	lastP50us         float64     // open loop: median of the last window, where a growing backlog shows
}

// instance is one set-up of a workload: generated inputs, the system under
// test built from them, and one warm-up behind it.
type instance interface {
	// measure drives the workload for d. rec is nil on the untraced run.
	measure(d time.Duration, rec *trace.Recorder) (*measurement, error)
	// verify checks m's outputs against the reference computed on a path
	// independent of the one measured, and adds mismatches to m.failed.
	verify(m *measurement) error
	// layers derives the per-layer metrics of a traced phase. Metrics it
	// leaves out are reported as 0: the layer was bypassed.
	layers(m *measurement, rec *trace.Recorder, reg registry) (map[string]float64, error)
	// throughputBound says which value trace_overhead compares: throughput
	// when true, median latency otherwise.
	throughputBound() bool
	// describe states the sizes the workload ran at.
	describe() []string
	close() error
}

// setupFunc builds an instance from the seed. dir is the run's temp dir.
type setupFunc func(cfg config, dir string) (instance, error)

var workloads = map[string]setupFunc{
	"serve_saturated": setupServe,
	"train_join":      setupTrainJoin,
	"train_ooc":       setupTrainOOC,
	"dml_script":      setupDMLScript,
}

// report is what run leaves for its caller beyond the printed lines.
type report struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	tempDir           string // removed by the time run returns
	serverAddr        string // closed by the time run returns
}

// run executes one workload end to end. Everything it starts — server,
// connections, goroutines, temp files — is gone when it returns, whatever the
// outcome.
func run(cfg config, w io.Writer) (rep report, err error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return rep, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return rep, err
	}
	sweepTemp(cfg) // what a crashed earlier run of this workload left
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return rep, err
	}
	rep.tempDir = dir
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	setups := setupsPerRun
	if cfg.smoke {
		setups = 1
	}
	var inst instance
	defer func() {
		if inst != nil {
			if cerr := inst.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	var setupS []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return rep, err
			}
			inst = nil
			// Return the previous set-up's memory before the next one, so
			// peak_rss_mb is one set-up's footprint and not three.
			runtime.GC()
		}
		t0 := time.Now()
		if inst, err = setup(cfg, dir); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if s, ok := inst.(*serveInstance); ok {
		rep.serverAddr = s.addr
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v smoke %v nproc %d gomaxprocs %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, l := range inst.describe() {
		fmt.Fprintln(w, " ", l)
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	rep.values = map[string]float64{}
	var phases []*measurement
	defs := endToEnd
	if !cfg.trace {
		m, err := inst.measure(total, nil)
		if err != nil {
			return rep, fmt.Errorf("measure: %w", err)
		}
		rss, err := peakRSSMB() // before verify: the reference may hold what the system never does
		if err != nil {
			return rep, err
		}
		if err := inst.verify(m); err != nil {
			return rep, fmt.Errorf("verify: %w", err)
		}
		phases = []*measurement{m}
		rep.values["setup_s"] = median(setupS)
		rep.values["latency_ms"] = m.latencyMs
		rep.values["throughput_per_s"] = m.throughput
		rep.values["peak_rss_mb"] = rss
	} else {
		defs = perLayer
		// Untraced first, for trace_overhead; then the same instance traced.
		base, err := inst.measure(total*3/10, nil)
		if err != nil {
			return rep, fmt.Errorf("measure (untraced): %w", err)
		}
		metrics.Reset()
		metrics.Enable()
		rec := trace.New()
		m, err := inst.measure(total*7/10, rec)
		metrics.Disable()
		if err != nil {
			return rep, fmt.Errorf("measure (traced): %w", err)
		}
		reg := readRegistry()
		for _, ph := range []*measurement{base, m} {
			if err := inst.verify(ph); err != nil {
				return rep, fmt.Errorf("verify: %w", err)
			}
		}
		phases = []*measurement{base, m}
		if rep.values, err = inst.layers(m, rec, reg); err != nil {
			return rep, fmt.Errorf("layers: %w", err)
		}
		rep.values["op.latency_p95_ms"] = m.p95ms
		poolLayer(rep.values, reg)
		layerCalls(rep.values, reg)
		if inst.throughputBound() {
			rep.values["trace_overhead"] = m.throughput / base.throughput
		} else {
			rep.values["trace_overhead"] = m.latencyMs / base.latencyMs
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := rec.WriteJSON(path); err != nil {
			return rep, err
		}
		fmt.Fprintf(w, "  trace written to %s\n", path)
		printSelfTimes(w, rec, m.elapsed)
	}

	for _, ph := range phases {
		rep.attempted += ph.attempted
		rep.failed += ph.failed
		for _, l := range ph.lines {
			fmt.Fprintln(w, " ", l)
		}
	}
	if cfg.trace {
		rep.values["failed_share"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	}
	rep.correct = rep.failed == 0 && rep.attempted > 0

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v := rep.values[d.name] // absent: the workload bypasses that layer
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	for name := range rep.values {
		if _, ok := out.Metrics[name]; !ok {
			return rep, fmt.Errorf("metric %q is not in the benchmark's vocabulary (spec.go)", name)
		}
	}
	fmt.Fprintf(w, "operations failed: %d of %d\n", rep.failed, rep.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, nil
}

// printSelfTimes prints where the traced phase's time went, by span name.
func printSelfTimes(w io.Writer, rec *trace.Recorder, wall time.Duration) {
	fmt.Fprintf(w, "  %-28s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	var selfSum int64
	sum := rec.Summary()
	for _, st := range sum {
		selfSum += st.SelfNs
	}
	for _, st := range sum {
		fmt.Fprintf(w, "  %-28s %10d %12.3f %12.3f %6.1f%%\n", st.Name, st.Count,
			float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6, 100*float64(st.SelfNs)/float64(max(selfSum, 1)))
	}
	fmt.Fprintf(w, "  (traced phase wall %.3f s)\n", wall.Seconds())
}

func main() {
	var cfg config
	var traceFlag int
	var deadline time.Duration
	flag.StringVar(&cfg.workload, "workload", "", "one of serve_saturated, train_join, train_ooc, dml_script")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs, for tests")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for traces and temporary files")
	flag.DurationVar(&deadline, "deadline", 90*time.Second, "hard limit on the whole run; exceeding it exits non-zero")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "dmmlperf: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}

	// The server, its connections and every goroutine live in this process,
	// so exiting it is what guarantees nothing is left running. The only
	// thing an exit can leave behind is the temp dir; sweep it first.
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "dmmlperf: %s exceeded its %s deadline\n", cfg.workload, deadline)
		sweepTemp(cfg)
		os.Exit(3)
	})
	os.Exit(realMain(cfg))
}

func realMain(cfg config) (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "dmmlperf: panic: %v\n", p)
			sweepTemp(cfg)
			code = 2
		}
	}()
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmmlperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintf(os.Stderr, "dmmlperf: %s: %d of %d operations failed\n", cfg.workload, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// sweepTemp removes this workload's temp dirs when run cannot unwind.
func sweepTemp(cfg config) {
	dirs, _ := filepath.Glob(filepath.Join(cfg.outDir, "run-"+cfg.workload+"-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}
