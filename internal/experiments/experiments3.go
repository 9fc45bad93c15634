package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

// residencyProbe wraps an out-of-core matrix so every block delivery samples
// the pool's resident byte count — the observable the bounded-memory claim is
// pinned on. It satisfies opt.BlockData through the embedded matrix; only the
// block stream is intercepted.
type residencyProbe struct {
	*ooc.Matrix
	bp  *storage.BufferPool
	max int64
}

func (p *residencyProbe) ForEachBlock(f func(b opt.RowBlock) error) error {
	return p.Matrix.ForEachBlock(func(b opt.RowBlock) error {
		if rb := p.bp.ResidentBytes(); rb > p.max {
			p.max = rb
		}
		return f(b)
	})
}

// e17Result is one variant's measurements, shared by the E17 table and the
// invariant-pinning test.
type e17Result struct {
	variant     string
	train       time.Duration
	finalLoss   float64
	denseBytes  int64
	pagedBytes  int64
	budget      int64
	maxResident int64
	evictions   int64
	spillReads  int64
}

// e17Run trains logistic regression on quantized telemetry data whose dense
// footprint is 4x the buffer-pool byte budget, under three datapaths: raw
// (uncompressed) pages with no prefetch — the naive page-thrash baseline —
// CLA-compressed pages, and CLA plus the async block prefetcher. Each variant
// gets a fresh pool and spill directory so nothing is warm across runs.
func e17Run(quick bool) ([]e17Result, error) {
	rows := scale(quick, 160000)
	cards := []int{
		8, 16, 4, 32, 64, 5, 9, 12, 3, 7, 24, 48, 6, 10, 2, 20,
		14, 28, 11, 40, 18, 3, 5, 36, 9, 22, 4, 13, 56, 6, 26, 8,
	}
	cols := len(cards)
	denseBytes := 8 * int64(rows) * int64(cols)
	budget := denseBytes / 4
	blockRows := rows / 64

	r := rand.New(rand.NewSource(17000))
	x := workload.TelemetryMatrix(r, rows, cards, 1.0)
	// Labels from a planted linear model over the quantized features, with 5%
	// flips so the optimum is interior.
	wTrue := make([]float64, cols)
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	margins := la.MatVec(x, wTrue)
	y := make([]float64, rows)
	for i, m := range margins {
		if (m > 0) != (r.Float64() < 0.05) {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}

	cfg := opt.StreamConfig{Step: 0.05, Decay: 0.9, L2: 1e-3, Epochs: 5}
	// The compressed variants co-code correlated low-cardinality columns, as
	// ooc's builder always does, so each block carries fewer groups: fewer
	// code arrays to unpack per pin, fewer per-row lookups in the
	// operate-over-compressed kernels.
	variants := []struct {
		name string
		opts ooc.Options
	}{
		{"raw-thrash", ooc.Options{BlockRows: blockRows, NoCompress: true}},
		{"cla", ooc.Options{BlockRows: blockRows}},
		{"cla+prefetch", ooc.Options{BlockRows: blockRows, Prefetch: true}},
	}

	dir, err := tmpDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := make([]e17Result, 0, len(variants))
	for _, v := range variants {
		bp, err := storage.NewBufferPoolBytes(budget, filepath.Join(dir, v.name))
		if err != nil {
			return out, err
		}
		m, err := ooc.FromDense(bp, x, v.opts)
		if err != nil {
			return out, err
		}
		bp.ResetStats()
		probe := &residencyProbe{Matrix: m, bp: bp}
		start := time.Now()
		res, err := opt.StreamingSGD(probe, y, opt.Logistic{}, cfg)
		elapsed := time.Since(start)
		if err != nil {
			return out, err
		}
		st := bp.Stats()
		out = append(out, e17Result{
			variant:     v.name,
			train:       elapsed,
			finalLoss:   res.History[len(res.History)-1],
			denseBytes:  denseBytes,
			pagedBytes:  m.PagedBytes(),
			budget:      budget,
			maxResident: probe.max,
			evictions:   st.Evictions,
			spillReads:  st.SpillReads,
		})
		if err := m.Drop(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// E17OutOfCoreTraining reproduces the out-of-core training shape the paper's
// compressed-linear-algebra and buffer-management sections motivate: when the
// dataset is 4x the memory budget, naive dense paging re-reads every page the
// budget cannot hold (three quarters of them) every epoch, while CLA-compressed blocks fit the working set in budget (so
// steady-state epochs do no spill I/O at all) and operate-over-compressed
// kernels cut the per-block compute on top. The prefetch variant additionally
// overlaps pinning block N+1 with computing on block N — a wall-clock win
// wherever more than one core is available to hide the decode.
func E17OutOfCoreTraining(quick bool) (Table, error) {
	t := Table{
		ID:     "E17",
		Title:  "out-of-core logistic training on 4x-budget data: CLA block paging + prefetch vs dense page thrash",
		Header: []string{"variant", "time", "speedup", "final_loss", "paged_mb", "budget_mb", "max_resident_mb", "evictions", "spill_reads"},
	}
	results, err := e17Run(quick)
	if err != nil {
		return t, err
	}
	mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
	base := results[0].train
	for _, r := range results {
		if r.maxResident > r.budget {
			return t, fmt.Errorf("experiments: E17: %s resident %d bytes exceeds the %d-byte budget", r.variant, r.maxResident, r.budget)
		}
		t.Rows = append(t.Rows, []string{
			r.variant, d(r.train), f(float64(base) / float64(r.train)), f(r.finalLoss),
			mb(r.pagedBytes), mb(r.budget), mb(r.maxResident),
			fmt.Sprint(r.evictions), fmt.Sprint(r.spillReads),
		})
	}
	t.Notes = "same optimizer and data; raw pages thrash (every epoch re-reads from spill the three quarters of its blocks the budget cannot hold), compressed blocks fit in budget after the first pass and multiply the matvec speed, prefetch hides pin+decode latency behind compute on multi-core hosts"
	return t, nil
}
