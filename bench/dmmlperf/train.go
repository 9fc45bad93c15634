package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dmml/bench/trace"
)

// trainBase is what the three training workloads share: run whole jobs back
// to back for the timed phase, time each, and check every job's result against
// the reference afterwards. A job whose result is outside the tolerance is a
// failure: the metric is time to a model of stated quality.
type trainBase struct {
	// job trains one model from the instance's inputs. Its spans hang under
	// parent in lane (both unused on the untraced run). The returned values
	// are what verify compares.
	job func(lane *trace.Lane, parent int, id int64) ([]float64, error)
	// reference computes the same values on a path that shares no kernels
	// with the job.
	reference func() ([]float64, error)
	tol       float64 // relative
	rowIters  float64 // training rows x configured iterations of one job
	minJobs   int

	ref    []float64
	nextID int64
}

func (b *trainBase) throughputBound() bool { return false }

func (b *trainBase) measure(d time.Duration, rec *trace.Recorder) (*measurement, error) {
	lane := rec.Lane()
	m := &measurement{}
	var wallMs []float64
	start := nowNs()
	for nowNs()-start < int64(d) || len(wallMs) < b.minJobs {
		id := b.nextID
		b.nextID++
		sp := lane.Begin("job", -1, id)
		t0 := nowNs()
		out, err := b.job(lane, sp, id)
		wallMs = append(wallMs, float64(nowNs()-t0)/1e6)
		lane.End(sp)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", id, err)
		}
		m.outputs = append(m.outputs, out)
	}
	m.elapsed = time.Duration(nowNs() - start)
	m.attempted = int64(len(wallMs))
	m.lines = append(m.lines, fmt.Sprintf("per job, ms: %.0f", wallMs))
	slices.Sort(wallMs)
	// The fastest tenth, not the median: on a shared host a job is slowed by
	// its neighbours for seconds at a time and never sped up, so the lower
	// decile repeats from run to run where the median follows the host.
	m.latencyMs = percentile(wallMs, 0.10)
	m.p95ms = percentile(wallMs, 0.95)
	m.throughput = b.rowIters / (m.latencyMs / 1e3)
	m.lines = append(m.lines, fmt.Sprintf("%d jobs in %.2fs: fastest %.2f ms, lower decile %.2f ms, median %.2f ms, p95 %.2f ms, slowest %.2f ms",
		len(wallMs), m.elapsed.Seconds(), wallMs[0], m.latencyMs, median(wallMs), m.p95ms, wallMs[len(wallMs)-1]))
	return m, nil
}

func (b *trainBase) verify(m *measurement) error {
	if b.ref == nil {
		ref, err := b.reference()
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		b.ref = ref
	}
	worst := 0.0
	for _, out := range m.outputs {
		bad := len(out) != len(b.ref)
		for i := 0; !bad && i < len(out); i++ {
			rel := math.Abs(out[i]-b.ref[i]) / math.Max(math.Abs(b.ref[i]), 1e-300)
			worst = math.Max(worst, rel)
			bad = !(rel <= b.tol) // NaN fails
		}
		if bad {
			m.failed++
		}
	}
	m.lines = append(m.lines, fmt.Sprintf("%d jobs checked against the reference: %d outside rel. tol. %g (worst %.2e)",
		len(m.outputs), m.failed, b.tol, worst))
	return nil
}

// spanMeanMS is the mean duration of the spans of one name, in ms.
func spanMeanMS(st map[string]trace.Stat, name string) float64 {
	return ratio(float64(st[name].TotalNs), float64(st[name].Count)) / 1e6
}
