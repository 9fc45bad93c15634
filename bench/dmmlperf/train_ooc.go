package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dmml/bench/trace"
	"dmml/internal/compress"
	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// train_ooc: streaming SGD over a matrix whose paged form is larger than the
// buffer pool, so every epoch evicts, spills, reads back, decodes and runs the
// operate-over-compressed kernels, with the prefetcher ahead of the compute.

// oocCards are the cardinalities of the Zipf-categorical telemetry columns;
// oocGauss Gaussian columns follow them.
var oocCards = []int{
	8, 16, 4, 32, 64, 5, 9, 12, 3, 7, 24, 48, 6, 10, 2, 20,
	14, 28, 11, 40, 18, 3, 5, 36, 9, 22, 4, 13, 56, 6, 26, 8,
}

const (
	oocGauss  = 8
	oocEpochs = 4
)

type trainOOC struct {
	trainBase
	cfg       config
	rows      int
	blockRows int
	cols      int
	budget    int64
	dir       string
	bp        *storage.BufferPool
	mat       *ooc.Matrix
	y         []float64 // what the job trains on; the reference regenerates its own
	sgd       opt.StreamConfig
	ingestS   float64

	stats        storage.PoolStats // pool activity of the last measured phase
	epochs       int64             // ForEachBlock passes in the last measured phase
	residentPeak int64
}

// oocGen generates the workload's blocks and labels in order from the seed.
// Set-up feeds them to the out-of-core builder one at a time; the reference
// runs it again and keeps them dense.
type oocGen struct {
	rng   *rand.Rand
	cum   [][]float64 // per categorical column: cumulative Zipf weights
	wTrue []float64
	cols  int
}

func newOOCGen(seed int64) *oocGen {
	g := &oocGen{rng: rand.New(rand.NewSource(seed)), cols: len(oocCards) + oocGauss}
	for _, card := range oocCards {
		cum := make([]float64, card)
		total := 0.0
		for k := range cum {
			total += 1 / float64(k+1) // Zipf, skew 1
			cum[k] = total
		}
		g.cum = append(g.cum, cum)
	}
	g.wTrue = make([]float64, g.cols)
	for j := range g.wTrue {
		g.wTrue[j] = g.rng.NormFloat64()
	}
	return g
}

// block returns the next rows x cols block and its labels. Categorical value k
// of a column with cardinality c is stored as k/c.
func (g *oocGen) block(rows int) (*la.Dense, []float64) {
	x := la.NewDense(rows, g.cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := x.RowView(i)
		for j, cum := range g.cum {
			u := g.rng.Float64() * cum[len(cum)-1]
			lo, hi := 0, len(cum)-1
			for lo < hi {
				if mid := (lo + hi) / 2; cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			row[j] = float64(lo) / float64(len(cum))
		}
		for j := len(g.cum); j < g.cols; j++ {
			row[j] = g.rng.NormFloat64()
		}
		y[i] = 1
		if (la.Dot(row, g.wTrue) < 0) != (g.rng.Float64() < 0.05) {
			y[i] = -1
		}
	}
	return x, y
}

func setupTrainOOC(cfg config, dir string) (inst instance, err error) {
	t := &trainOOC{cfg: cfg, rows: 400000, blockRows: 4096, cols: len(oocCards) + oocGauss,
		sgd: opt.StreamConfig{Step: 0.05, Decay: 0.9, L2: 1e-3, Epochs: oocEpochs}}
	if cfg.smoke {
		t.rows, t.blockRows = 8192, 512
	}
	t.budget = 8 * int64(t.rows) * int64(t.cols) / 4
	if t.dir, err = os.MkdirTemp(dir, "pool-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.bp, err = storage.NewBufferPoolBytes(t.budget, filepath.Join(t.dir, "spill")); err != nil {
		return nil, err
	}
	gen := newOOCGen(cfg.seed)
	b := ooc.NewBuilder(t.bp, t.cols, ooc.Options{BlockRows: t.blockRows, Prefetch: true})
	var ingest time.Duration
	for r0 := 0; r0 < t.rows; r0 += t.blockRows {
		x, y := gen.block(min(t.blockRows, t.rows-r0))
		t.y = append(t.y, y...)
		t0 := time.Now()
		if err := b.AppendBlock(x); err != nil {
			return nil, err
		}
		ingest += time.Since(t0)
	}
	t0 := time.Now()
	if t.mat, err = b.Finish(); err != nil {
		return nil, err
	}
	t.ingestS = (ingest + time.Since(t0)).Seconds()

	t.trainBase = trainBase{job: t.job, reference: t.reference, tol: 1e-6, rowIters: float64(t.rows) * oocEpochs, minJobs: 3}
	if _, err := t.job(nil, -1, -1); err != nil { // warm-up
		return nil, err
	}
	return t, nil
}

func (t *trainOOC) close() error {
	var err error
	if t.mat != nil {
		err = t.mat.Drop()
		t.mat = nil
	}
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

// tracedBlocks decorates the matrix's BlockData stream: one span per pass,
// inside it one span for each wait for a block (pin, spill read, decode, or
// the prefetcher's hand-over) and one for each block's compute, whose
// children are the block's two kernels.
type tracedBlocks struct {
	*ooc.Matrix
	t      *trainOOC
	lane   *trace.Lane
	parent int
	id     int64
}

func (d tracedBlocks) ForEachBlock(f func(opt.RowBlock) error) error {
	pass := d.lane.Begin("ooc.foreach_block", d.parent, d.id)
	defer d.lane.End(pass)
	d.t.epochs++
	waitFrom := time.Now()
	return d.Matrix.ForEachBlock(func(b opt.RowBlock) error {
		d.lane.Add("ooc.block_wait", pass, d.id, waitFrom, time.Now())
		d.t.residentPeak = max(d.t.residentPeak, d.t.bp.ResidentBytes())
		sp := d.lane.Begin("opt.block_step", pass, d.id)
		err := f(tracedBlock{b, d.lane, sp, d.id})
		d.lane.End(sp)
		waitFrom = time.Now()
		return err
	})
}

type tracedBlock struct {
	opt.RowBlock
	lane   *trace.Lane
	parent int
	id     int64
}

func (b tracedBlock) MatVecInto(dst, v []float64) []float64 {
	sp := b.lane.Begin("compress.matvec", b.parent, b.id)
	defer b.lane.End(sp)
	return b.RowBlock.MatVecInto(dst, v)
}

func (b tracedBlock) VecMatAccum(out, x []float64) {
	sp := b.lane.Begin("compress.vecmat", b.parent, b.id)
	defer b.lane.End(sp)
	b.RowBlock.VecMatAccum(out, x)
}

func (t *trainOOC) measure(d time.Duration, rec *trace.Recorder) (*measurement, error) {
	t.bp.ResetStats()
	t.epochs, t.residentPeak = 0, 0
	m, err := t.trainBase.measure(d, rec)
	t.stats = t.bp.Stats()
	return m, err
}

func (t *trainOOC) job(lane *trace.Lane, parent int, id int64) ([]float64, error) {
	sp := lane.Begin("opt.stream_sgd", parent, id)
	defer lane.End(sp)
	var data opt.BlockData = t.mat
	if lane != nil {
		data = tracedBlocks{t.mat, t, lane, sp, id}
	}
	res, err := opt.StreamingSGD(data, t.y, opt.Logistic{}, t.sgd)
	if err != nil {
		return nil, err
	}
	return sgdOutputs(res), nil
}

// sgdOutputs is what a streaming fit is judged by: the loss of every epoch and
// the squared norm of the final weights.
func sgdOutputs(res *opt.GDResult) []float64 {
	return append(append([]float64(nil), res.History...), la.Dot(res.W, res.W))
}

// denseBlocks is the reference's data source: the same blocks, held dense,
// with plain la kernels behind opt.BlockData.
type denseBlocks struct {
	blocks []*la.Dense
	starts []int
	rows   int
	cols   int
}

type denseBlock struct {
	x     *la.Dense
	start int
}

func (b denseBlock) StartRow() int                         { return b.start }
func (b denseBlock) Rows() int                             { return b.x.Rows() }
func (b denseBlock) Cols() int                             { return b.x.Cols() }
func (b denseBlock) MatVecInto(dst, v []float64) []float64 { return la.MatVecInto(dst, b.x, v) }
func (b denseBlock) VecMatAccum(out, x []float64) {
	for i, xi := range x {
		la.Axpy(xi, b.x.RowView(i), out)
	}
}

func (d *denseBlocks) Rows() int      { return d.rows }
func (d *denseBlocks) Cols() int      { return d.cols }
func (d *denseBlocks) NumBlocks() int { return len(d.blocks) }
func (d *denseBlocks) MatVec(v []float64) []float64 {
	panic("denseBlocks: streaming SGD reads blocks only")
}
func (d *denseBlocks) VecMat(x []float64) []float64 {
	panic("denseBlocks: streaming SGD reads blocks only")
}
func (d *denseBlocks) ForEachBlock(f func(opt.RowBlock) error) error {
	for i, x := range d.blocks {
		if err := f(denseBlock{x, d.starts[i]}); err != nil {
			return err
		}
	}
	return nil
}

// reference regenerates the blocks from the seed, keeps them dense and runs
// the same streaming fit over them. It runs after peak_rss_mb is read.
func (t *trainOOC) reference() ([]float64, error) {
	gen := newOOCGen(t.cfg.seed)
	d := &denseBlocks{cols: t.cols}
	var y []float64
	for r0 := 0; r0 < t.rows; r0 += t.blockRows {
		x, yb := gen.block(min(t.blockRows, t.rows-r0))
		d.blocks, d.starts = append(d.blocks, x), append(d.starts, r0)
		d.rows += x.Rows()
		y = append(y, yb...)
	}
	res, err := opt.StreamingSGD(d, y, opt.Logistic{}, t.sgd)
	if err != nil {
		return nil, err
	}
	return sgdOutputs(res), nil
}

func (t *trainOOC) describe() []string {
	return []string{
		fmt.Sprintf("matrix %d x %d (%d Zipf-categorical + %d Gaussian columns) in %d blocks of %d rows, built block by block: never dense in memory",
			t.rows, t.cols, len(oocCards), oocGauss, t.mat.NumBlocks(), t.blockRows),
		fmt.Sprintf("dense %d bytes, paged %d bytes (%d of %d blocks compressed), pool budget %d bytes: paged/budget %.2f",
			t.mat.DenseBytes(), t.mat.PagedBytes(), t.mat.CompressedBlocks(), t.mat.NumBlocks(), t.budget,
			float64(t.mat.PagedBytes())/float64(t.budget)),
		fmt.Sprintf("job: StreamingSGD(logistic, %d epochs, prefetch on)", oocEpochs),
		"reference: the same fit over the same blocks regenerated and held dense, rel. tol. 1e-6",
	}
}

func (t *trainOOC) layers(m *measurement, rec *trace.Recorder, reg registry) (map[string]float64, error) {
	st := rec.Stats()
	epochs := float64(t.epochs)
	pins := float64(reg.counters["ooc.blocks.pins"])
	hits, misses := float64(reg.counters["ooc.prefetch.hits"]), float64(reg.counters["ooc.prefetch.misses"])
	v := map[string]float64{
		"ooc.ingest_s":                   t.ingestS,
		"ooc.block_pin_ms":               spanMeanMS(st, "ooc.block_wait"),
		"ooc.decode_ms_per_block":        reg.timerMeanMS("ooc.block.decode"),
		"ooc.prefetch_hit_rate":          ratio(hits, hits+misses),
		"ooc.blocks_per_epoch":           ratio(pins, epochs),
		"compress.ratio":                 float64(t.mat.DenseBytes()) / float64(t.mat.PagedBytes()),
		"storage.evictions_per_epoch":    ratio(float64(t.stats.Evictions), epochs),
		"storage.spill_reads_per_epoch":  ratio(float64(t.stats.SpillReads), epochs),
		"storage.spill_writes_per_epoch": ratio(float64(t.stats.SpillWrites), epochs),
		"storage.bufferpool_hit_rate":    ratio(float64(t.stats.Hits), float64(t.stats.Hits+t.stats.Misses)),
		"storage.resident_peak_mb":       float64(t.residentPeak) / (1 << 20),
		"opt.stream_epoch_ms":            spanMeanMS(st, "ooc.foreach_block"),
		"opt.rows_per_s":                 m.throughput,
	}

	// Direct calls on one block: what encoding it costs at ingest, and what
	// its two kernels cost per epoch.
	x, _ := newOOCGen(t.cfg.seed).block(t.blockRows)
	var cm *compress.Matrix
	v["compress.encode_ms_per_block"] = timeLoop(t.cfg, func() { cm = compress.Compress(x, compress.Options{}) }) / 1e6
	w, dst := make([]float64, t.cols), make([]float64, t.blockRows)
	for j := range w {
		w[j] = math.Sin(float64(j + 1))
	}
	v["compress.matvec_ms_per_block"] = timeLoop(t.cfg, func() { cm.MatVecInto(dst, w) }) / 1e6
	out := make([]float64, t.cols)
	v["compress.vecmat_ms_per_block"] = timeLoop(t.cfg, func() { cm.VecMatAccum(out, dst) }) / 1e6
	return v, nil
}
