package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmml/internal/pool"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, smoke: true, outDir: t.TempDir()}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] || workloads[w.Name] == nil {
			t.Errorf("workload %d is %q, spec.go has %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, spec.go %d + %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, spec.go has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, spec.go has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", b.RunSeconds, b.Paths)
	}
}

// runSmoke runs one workload at smoke scale and returns its report and the
// result object it printed last.
func runSmoke(t *testing.T, workload string, trace bool) (report, map[string]float64, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := run(smokeConfig(t, workload, trace), &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, %d of %d failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	vals := map[string]float64{}
	for k, m := range res.Metrics {
		vals[k] = m.Value
	}
	return rep, vals, out.String()
}

// The open loop reports the median of a window's latencies, the closed loop
// their mean (in flight ÷ throughput, which the order of service cannot move).
func TestSummarizeLatencyByLoopKind(t *testing.T) {
	for _, tc := range []struct {
		closed bool
		wantMs float64
	}{{false, 2e-3}, {true, 4e-3}} {
		var m measurement
		summarize(&m, [][]uint32{{1000, 2000, 9000}, {9000, 1000, 2000}}, 1e9, tc.closed)
		if math.Abs(m.latencyMs-tc.wantMs) > 1e-12 || m.throughput != 3 {
			t.Errorf("closed=%v: latency %g ms (want %g), %g/s (want 3)", tc.closed, m.latencyMs, tc.wantMs, m.throughput)
		}
	}
}

// Every metric of BENCHMARK.json is emitted exactly once on every workload:
// the end-to-end ones by the untraced run, the per-layer ones by the traced
// run; end-to-end metrics are never zero; bypassed layers record zero calls and
// the layers a workload exists for record some.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	callCounters := []string{"serve.requests", "factorized.calls", "ooc.block_pins", "compress.calls", "storage.pins", "dml.ops"}
	active := map[string][]string{
		"serve_saturated": {"serve.requests"},
		"train_join":      {"factorized.calls"},
		"train_ooc":       {"ooc.block_pins", "compress.calls", "storage.pins"},
		"dml_script":      {"dml.ops"},
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				_, vals, out := runSmoke(t, w, traced)
				if len(vals) != len(defs) {
					t.Errorf("trace=%v: %d metrics in the result, want %d", traced, len(vals), len(defs))
				}
				for _, d := range defs {
					v, ok := vals[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace=%v: metric %s missing or not a number (%v)", traced, d.name, v)
					}
					if n := len(regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(d.name)+` `).FindAllString(out, -1)); n != 1 {
						t.Errorf("trace=%v: metric %s printed %d times", traced, d.name, n)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, v)
					}
				}
				if !traced {
					continue
				}
				on := map[string]bool{}
				for _, c := range active[w] {
					on[c] = true
				}
				for _, c := range callCounters {
					if on[c] && vals[c] <= 0 {
						t.Errorf("%s = %v: the layer this workload exists for was not called", c, vals[c])
					}
					if !on[c] && vals[c] != 0 {
						t.Errorf("%s = %v: the workload is supposed to bypass this layer", c, vals[c])
					}
				}
				if vals["trace_overhead"] <= 0 || vals["failed_share"] != 0 {
					t.Errorf("trace_overhead %v failed_share %v", vals["trace_overhead"], vals["failed_share"])
				}
			}
		})
	}
}

func hashFloats(h io.Writer, v []float64) {
	binary.Write(h, binary.LittleEndian, v)
}

// inputsDigest sets a workload up and hashes everything it generated.
func inputsDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	cfg := smokeConfig(t, workload, false)
	cfg.seed = seed
	inst, err := workloads[workload](cfg, cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	h := sha256.New()
	switch w := inst.(type) {
	case *serveInstance:
		for _, m := range w.models {
			hashFloats(h, m.w)
			hashFloats(h, []float64{m.bias})
			for _, row := range m.rows {
				hashFloats(h, row)
			}
		}
		due, key, conn := w.schedule(2000, 100*time.Millisecond)
		binary.Write(h, binary.LittleEndian, due)
		binary.Write(h, binary.LittleEndian, key)
		h.Write(conn)
	case *trainJoin:
		for _, n := range w.nodes {
			hashFloats(h, n.X.RawData())
		}
		for _, e := range w.edges {
			fmt.Fprint(h, e.Parent, e.Child, e.FK)
		}
		hashFloats(h, w.y)
	case *trainOOC:
		gen := newOOCGen(seed)
		for i := 0; i < 3; i++ {
			x, y := gen.block(w.blockRows)
			hashFloats(h, x.RawData())
			hashFloats(h, y)
		}
		hashFloats(h, w.y)
	case *dmlScript:
		hashFloats(h, w.x.RawData())
		hashFloats(h, w.y.RawData())
	default:
		t.Fatalf("no digest for %T", inst)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := inputsDigest(t, w, 11), inputsDigest(t, w, 11), inputsDigest(t, w, 12)
		if a != b {
			t.Errorf("%s: seed 11 generated different inputs twice", w)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", w)
		}
	}
}

// After a run nothing the benchmark started is left: the listener is closed,
// the goroutines are gone and so is the temp dir — on a failing run too.
func TestRunLeavesNothingBehind(t *testing.T) {
	pool.Workers() // the engine's resident helpers start once and stay: part of the baseline
	runSmoke(t, "serve_saturated", true)
	baseline := runtime.NumGoroutine()
	for _, w := range []string{"serve_saturated", "train_ooc"} {
		rep, _, _ := runSmoke(t, w, true)
		if _, err := os.Stat(rep.tempDir); !os.IsNotExist(err) {
			t.Errorf("%s: temp dir %s still there (%v)", w, rep.tempDir, err)
		}
		if rep.serverAddr != "" {
			if c, err := net.DialTimeout("tcp", rep.serverAddr, time.Second); err == nil {
				c.Close()
				t.Errorf("%s: %s still accepts connections", w, rep.serverAddr)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines after the run, %d before", w, n, baseline)
		}
	}

	cfg := smokeConfig(t, "no_such_workload", false)
	if _, err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload ran")
	}
}

// The reference checks are live: corrupt one weight or one label on the
// measured side only, and operations fail.
func TestCorruptedInputFailsTheCheck(t *testing.T) {
	t.Run("serve: one weight", func(t *testing.T) {
		cfg := smokeConfig(t, "serve_saturated", false)
		inst, err := setupServe(cfg, cfg.outDir)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		s := inst.(*serveInstance)
		s.tamper = func(w []float64) { w[0] = -w[0] }
		m, err := s.measure(200*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed == 0 || m.failed == m.attempted {
			t.Errorf("%d of %d failed: want the responses under tampered versions, and only those, to fail", m.failed, m.attempted)
		}
	})
	flip := map[string]func(instance){
		"train_join": func(i instance) { t := i.(*trainJoin); t.y[0] = -t.y[0] },
		"train_ooc":  func(i instance) { t := i.(*trainOOC); t.y[0] = -t.y[0] },
		"dml_script": func(i instance) { t := i.(*dmlScript); t.y.Set(0, 0, 1-t.y.At(0, 0)) },
	}
	for w, corrupt := range flip {
		t.Run(w+": one label", func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			inst, err := workloads[w](cfg, cfg.outDir)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			corrupt(inst)
			m, err := inst.measure(50*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.verify(m); err != nil {
				t.Fatal(err)
			}
			if m.failed != m.attempted {
				t.Errorf("%d of %d jobs failed the reference check, want all", m.failed, m.attempted)
			}
		})
	}
}
