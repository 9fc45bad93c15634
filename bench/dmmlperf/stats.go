package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dmml/internal/metrics"
)

// epoch anchors nowNs; every time the benchmark takes is monotonic ns since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// percentile returns the nearest-rank q-quantile of sorted raw samples.
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of unsorted values; the mean of the middle two when there are two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// registry is a by-name view of the engine's metrics registry, read after a
// traced phase. The benchmark reads counters the engine already exposes; it
// registers none.
type registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]metrics.HistogramSnapshot
	timers   map[string]metrics.TimerSnapshot
}

func readRegistry() registry {
	snap := metrics.TakeSnapshot()
	r := registry{map[string]int64{}, map[string]float64{}, map[string]metrics.HistogramSnapshot{}, map[string]metrics.TimerSnapshot{}}
	for _, c := range snap.Counters {
		r.counters[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		r.gauges[g.Name] = g.Value
	}
	for _, h := range snap.Histograms {
		r.hists[h.Name] = h
	}
	for _, t := range snap.Timers {
		r.timers[t.Name] = t
	}
	return r
}

// timerMeanMS is a registry timer's mean duration per call, in ms.
func (r registry) timerMeanMS(name string) float64 { return r.timers[name].MeanNs / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// poolLayer fills the pool.* metrics, which every workload reports: the three
// training workloads use the pool differently, and serving barely at all.
func poolLayer(v map[string]float64, reg registry) {
	calls := float64(reg.counters["pool.do.calls"])
	v["pool.do_calls"] = calls
	v["pool.do_serial_share"] = ratio(float64(reg.counters["pool.do.serial"]), calls)
	v["pool.chunks_stolen_share"] = ratio(float64(reg.counters["pool.chunks.stolen"]), float64(reg.counters["pool.chunks.claimed"]))
	v["pool.helpers_recruited"] = float64(reg.counters["pool.helpers.recruited"])
}

// layerCalls fills the call counters of every layer from the registry, on
// every workload: a bypassed layer is one whose counter the registry left at 0.
func layerCalls(v map[string]float64, reg registry) {
	c, t := reg.counters, reg.timers
	v["serve.requests"] = float64(c["serve.requests"])
	v["factorized.calls"] = float64(c["factorized.matvec.calls"] + c["factorized.vecmat.calls"] + c["factorized.gram.calls"])
	v["ooc.block_pins"] = float64(c["ooc.blocks.pins"])
	v["compress.calls"] = float64(t["compress.Compress"].Count + t["compress.MatVec"].Count + t["compress.VecMat"].Count + t["compress.Gram"].Count)
	v["storage.pins"] = float64(c["storage.bufferpool.hits"] + c["storage.bufferpool.misses"])
	v["la.calls"] = float64(c["la.matvec.calls"] + c["la.vecmat.calls"] + c["la.gram.calls"] + c["la.matmul.calls"] +
		c["la.fused.cell.calls"] + c["la.fused.rowagg.calls"])
	for name, tm := range t {
		if strings.HasPrefix(name, "dml.op.") {
			v["dml.ops"] += float64(tm.Count)
		}
	}
}

// timeLoop runs f repeatedly for a fifth of a second (5 ms at smoke scale) and
// returns mean ns per call. It is how the direct kernel calls of the traced run
// are timed.
func timeLoop(cfg config, f func()) float64 {
	minNs := int64(200 * time.Millisecond)
	if cfg.smoke {
		minNs = int64(5 * time.Millisecond)
	}
	f() // warm caches and lazily compiled kernels
	var n, elapsed int64
	for batch := int64(1); elapsed < minNs; batch *= 2 {
		t0 := nowNs()
		for i := int64(0); i < batch; i++ {
			f()
		}
		elapsed += nowNs() - t0
		n += batch
	}
	return float64(elapsed) / float64(n)
}
