// Package experiments implements the reproduction harness: one function per
// experiment in EXPERIMENTS.md (E1–E13 plus the E-ABL ablations), each
// regenerating the canonical
// result shape of a system the paper surveys. Every function returns a
// Table that cmd/dmmlbench prints and bench_test.go exercises.
//
// Wall-clock timing lives here (harness level), not in the library packages.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"dmml/internal/compress"
	"dmml/internal/core"
	"dmml/internal/factorized"
	"dmml/internal/hamlet"
	"dmml/internal/la"
	"dmml/internal/ml"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// Table is a labeled experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Experiment is one entry of the registry: a table id and the function that
// produces that table (quick runs it at ~1/10 scale).
type Experiment struct {
	ID  string
	Run func(quick bool) (Table, error)
}

// All lists every experiment in EXPERIMENTS.md order.
var All = []Experiment{
	{"E1", E1FactorizedVsMaterialized},
	{"E2", E2HamletRule},
	{"E3", E3CompressionRatio},
	{"E4", E4CompressedMV},
	{"E5", E5Rewrites},
	{"E6", E6BismarckParallel},
	{"E7", E7ModelSearch},
	{"E8", E8ColumbusReuse},
	{"E9", E9ParamServer},
	{"E10", E10SparseVsDense},
	{"E11", E11BufferPool},
	{"E12", E12ReuseAcrossCV},
	{"E13", E13PlannerChoice},
	{"E14", E14FaultTolerance},
	{"E15", E15Fusion},
	{"E17", E17OutOfCoreTraining},
	{"E18", E18FactorizedSnowflake},
	{"E-ABL1", EKMeansPruning},
	{"E-ABL2", EColumnCoCoding},
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

func f(v float64) string       { return fmt.Sprintf("%.3g", v) }
func d(v time.Duration) string { return fmt.Sprintf("%.2fms", float64(v.Microseconds())/1000) }

// scale shrinks workload sizes in quick mode (tests/benches).
func scale(quick bool, full int) int {
	if quick {
		s := full / 10
		if s < 10 {
			s = 10
		}
		return s
	}
	return full
}

// E1FactorizedVsMaterialized reproduces the Orion/F shape: per-iteration GLM
// training over a star schema, factorized vs. materialized, swept over the
// tuple ratio. Factorized wins grow with TR; near TR≈1 the learning alone
// ties. The materialized baseline is timed from the star's tables: the
// relational engine's hash joins, the projection into a matrix, then GD over
// it; learn_speedup times that GD alone. join_exact checks the matrix,
// untimed, against the factorized design's own materialization bit for bit.
func E1FactorizedVsMaterialized(quick bool) (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "factorized vs materialized GLM training over a join (Orion/F)",
		Header: []string{"tuple_ratio", "fact_rows", "dim_rows", "t_factorized", "t_materialized", "speedup", "learn_speedup", "predicted", "join_exact"},
		Notes: "speedup >1 means factorized wins; learn_speedup: GD alone; predicted: the learning flops model, a tie near TR≈1; " +
			"t_materialized: hash joins + projection + GD, from tables built untimed; each arm runs once untimed before TR=1 is timed; join_exact: the hash-joined matrix equals the materialized one bit for bit",
	}
	factRows := scale(quick, 100000)
	iters := 8
	for _, tr := range []int{1, 5, 20, 50} {
		r := rand.New(rand.NewSource(int64(1000 + tr)))
		dimRows := factRows / tr
		if dimRows < 1 {
			dimRows = 1
		}
		s, err := workload.GenerateStar(r, workload.StarConfig{
			FactRows: factRows, FactFeats: 4,
			DimRows: []int{dimRows}, DimFeats: []int{30},
			Task: workload.RegressionTask, Noise: 0.1, DimSignal: 1,
		})
		if err != nil {
			return t, err
		}
		design, err := factorized.NewStar(s.X[0], s.FKs[1:], s.X[1:])
		if err != nil {
			return t, err
		}
		cfg := opt.GDConfig{Step: 0.05, MaxIter: iters, Backtracking: false}
		tables, err := s.Tables()
		if err != nil {
			return t, err
		}

		// arms times GD over the factorized design, then the hash joins
		// and GD over the matrix they give.
		arms := func() (tFact, tMat, tLearn time.Duration, joined *la.Dense, err error) {
			start := time.Now()
			if _, err = opt.GradientDescent(design, s.Y, opt.Squared{}, cfg); err != nil {
				return
			}
			tFact = time.Since(start)
			start = time.Now()
			if joined, err = s.JoinedMatrix(tables); err != nil {
				return
			}
			learn := time.Now()
			if _, err = opt.GradientDescent(opt.DenseData{M: joined}, s.Y, opt.Squared{}, cfg); err != nil {
				return
			}
			tMat, tLearn = time.Since(start), time.Since(learn)
			return
		}
		if tr == 1 {
			// One untimed run of each arm first, so the first timed cell
			// is not the first GD the process runs.
			if _, _, _, _, err := arms(); err != nil {
				return t, err
			}
		}
		tFact, tMat, tLearn, joined, err := arms()
		if err != nil {
			return t, err
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(tr), fmt.Sprint(factRows), fmt.Sprint(dimRows),
			d(tFact), d(tMat), f(float64(tMat) / float64(tFact)),
			f(float64(tLearn) / float64(tFact)), f(design.Speedup()),
			fmt.Sprint(sameBits(joined, design.Materialize())),
		})
	}
	return t, nil
}

// E2HamletRule reproduces Hamlet's claim: the tuple-ratio rule predicts when
// dropping a FK join costs no accuracy.
func E2HamletRule(quick bool) (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "avoiding joins safely (Hamlet tuple-ratio rule)",
		Header: []string{"scenario", "tuple_ratio", "rule_says", "acc_joined", "acc_avoided", "gap"},
		Notes:  "rule=avoid rows should show gap≈0; rule=keep rows should show positive gap",
	}
	n := scale(quick, 20000)
	cases := []struct {
		name      string
		dimRows   int
		dimSignal float64
	}{
		{"high-TR, no dim signal", n / 200, 0},
		{"high-TR, weak dim signal", n / 200, 0.3},
		{"low-TR, strong dim signal", n / 10, 3},
	}
	for i, c := range cases {
		r := rand.New(rand.NewSource(int64(2000 + i)))
		s, err := workload.GenerateStar(r, workload.StarConfig{
			FactRows: n, FactFeats: 4,
			DimRows: []int{max(c.dimRows, 2)}, DimFeats: []int{6},
			Task: workload.ClassificationTask, Noise: 0.02, DimSignal: c.dimSignal,
		})
		if err != nil {
			return t, err
		}
		res, err := hamlet.CompareEmpirical(s, 1, hamlet.DefaultRule(), 0.25, int64(i))
		if err != nil {
			return t, err
		}
		verdict := "keep"
		if res.Decision.Avoid {
			verdict = "avoid"
		}
		t.Rows = append(t.Rows, []string{
			c.name, f(res.Decision.TupleRatio), verdict,
			f(res.AccJoined), f(res.AccAvoided), f(res.Gap()),
		})
	}
	return t, nil
}

// E3CompressionRatio reproduces CLA's compression-ratio table: ratios grow
// with skew and shrink with cardinality; continuous data falls back to UC.
// Every column decompresses to its input bit for bit (lossless).
func E3CompressionRatio(quick bool) (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "CLA compression ratio by column regime",
		Header: []string{"column", "cardinality", "skew", "encoding", "ratio", "lossless"},
		Notes:  "dense bytes / compressed bytes; UC fallback ⇒ ratio ≈ 1; lossless: decompression returns the input bit for bit",
	}
	n := scale(quick, 200000)
	r := rand.New(rand.NewSource(3000))
	add := func(name string, col []float64, card int, skew float64) {
		m := la.NewDense(len(col), 1)
		for i, v := range col {
			m.Set(i, 0, v)
		}
		cm := compress.Compress(m, compress.Options{})
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(card), f(skew),
			cm.Groups()[0].Encoding(), f(cm.CompressionRatio()),
			fmt.Sprint(sameBits(cm.Decompress(), m)),
		})
	}
	for _, card := range []int{4, 100, 10000} {
		for _, skew := range []float64{0, 1.5} {
			add("zipf", workload.ZipfColumn(r, n, card, skew), card, skew)
		}
	}
	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i / (n / 16))
	}
	add("sorted-runs", sorted, 16, 0)
	cont := make([]float64, n)
	for i := range cont {
		cont[i] = r.NormFloat64()
	}
	add("continuous", cont, n, 0)
	return t, nil
}

// E4CompressedMV reproduces CLA's operations claim: matrix–vector over the
// compressed form is competitive with dense, while using a fraction of the
// memory.
func E4CompressedMV(quick bool) (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "matrix–vector over compressed vs dense (CLA operations)",
		Header: []string{"skew", "ratio", "t_dense", "t_compressed", "rel_time", "mem_dense", "mem_compressed"},
		Notes:  "rel_time ≈ 1 means compressed ops keep pace while shrinking memory",
	}
	n := scale(quick, 300000)
	reps := 20
	for _, skew := range []float64{0, 1.0, 1.5} {
		r := rand.New(rand.NewSource(int64(4000 + int(skew*10))))
		m := workload.TelemetryMatrix(r, n, []int{8, 16, 4, 32, 64, 5, 9, 12}, skew)
		cm := compress.Compress(m, compress.Options{CoCode: true})
		v := make([]float64, m.Cols())
		for i := range v {
			v[i] = r.NormFloat64()
		}
		// Quiesce the allocator so timings are not dominated by GC debt from
		// the previous experiment's allocations.
		runtime.GC()
		start := time.Now()
		for k := 0; k < reps; k++ {
			la.MatVec(m, v)
		}
		tDense := time.Since(start)
		runtime.GC()
		start = time.Now()
		for k := 0; k < reps; k++ {
			cm.MatVec(v)
		}
		tComp := time.Since(start)
		t.Rows = append(t.Rows, []string{
			f(skew), f(cm.CompressionRatio()), d(tDense), d(tComp),
			f(float64(tComp) / float64(tDense)),
			fmt.Sprint(cm.DenseSizeBytes()), fmt.Sprint(cm.SizeBytes()),
		})
	}
	return t, nil
}

// E6BismarckParallel reproduces Bismarck's parallel-SGD comparison:
// model-averaging and shared-atomic parallelism versus sequential SGD.
func E6BismarckParallel(quick bool) (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "Bismarck UDA parallel SGD: shared vs model-averaging",
		Header: []string{"mode", "workers", "time", "final_loss"},
		Notes:  "both parallel modes should approach sequential loss with better time at higher worker counts",
	}
	n := scale(quick, 200000)
	r := rand.New(rand.NewSource(6000))
	x, y, _ := workload.Classification(r, n, 50, 0.02)
	cfg := opt.SGDConfig{Step: 0.5, Decay: 0.5, Epochs: 4, Seed: 7}

	start := time.Now()
	seq, err := opt.SGD(x, y, opt.Logistic{}, cfg)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"sequential", "1", d(time.Since(start)), f(last(seq.EpochLoss))})

	for _, mode := range []opt.ParallelMode{opt.ModelAverage, opt.SharedAtomic} {
		name := "model-average"
		if mode == opt.SharedAtomic {
			name = "shared-atomic"
		}
		for _, workers := range []int{2, 4, 8} {
			start := time.Now()
			res, err := opt.ParallelSGD(x, y, opt.Logistic{}, cfg, workers, mode)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{name, fmt.Sprint(workers), d(time.Since(start)), f(last(res.EpochLoss))})
		}
	}
	return t, nil
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// E10SparseVsDense reproduces the data-layout shape: CSR beats dense GEMV
// once sparsity is high enough; dense wins on dense data.
func E10SparseVsDense(quick bool) (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "sparse (CSR) vs dense matrix–vector by sparsity",
		Header: []string{"sparsity", "nnz", "t_dense", "t_csr", "csr_speedup"},
		Notes:  "CSR wins at high sparsity; dense wins when data is dense",
	}
	n := scale(quick, 4000)
	dcols := 2000
	if quick {
		dcols = 400
	}
	reps := 20
	for _, density := range []float64{0.5, 0.1, 0.01, 0.001} {
		r := rand.New(rand.NewSource(int64(7000 + int(density*1000))))
		sp, err := workload.SparseMatrix(r, n, dcols, density)
		if err != nil {
			return t, err
		}
		dn := sp.ToDense()
		v := make([]float64, dcols)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		start := time.Now()
		for k := 0; k < reps; k++ {
			la.MatVec(dn, v)
		}
		tDense := time.Since(start)
		start = time.Now()
		for k := 0; k < reps; k++ {
			sp.MatVec(v)
		}
		tCSR := time.Since(start)
		t.Rows = append(t.Rows, []string{
			f(1 - density), fmt.Sprint(sp.NNZ()), d(tDense), d(tCSR),
			f(float64(tDense) / float64(tCSR)),
		})
	}
	return t, nil
}

// E13PlannerChoice validates the core planner end-to-end: on both sides of
// the factorized/materialized crossover, the plan it picks must be the
// faster one when it and its same-solver alternative are forced and
// measured.
func E13PlannerChoice(quick bool) (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "cost-based planner vs measured best plan",
		Header: []string{"scenario", "chosen_plan", "t_chosen", "t_alternative", "correct"},
	}
	factRows := scale(quick, 60000)

	// Scenario A: high tuple ratio → factorized should win.
	// Scenario B: tuple ratio < 1 → materialized should win.
	type scenario struct {
		name    string
		dimRows int
		alt     map[string]string
	}
	scenarios := []scenario{
		{"normalized TR=100", factRows / 100, map[string]string{
			"factorized+iterative": "materialized+iterative", "materialized+iterative": "factorized+iterative",
			"factorized+direct": "materialized+direct", "materialized+direct": "factorized+direct",
		}},
		{"normalized TR=0.2", factRows * 5, map[string]string{
			"factorized+iterative": "materialized+iterative", "materialized+iterative": "factorized+iterative",
			"factorized+direct": "materialized+direct", "materialized+direct": "factorized+direct",
		}},
	}
	for i, sc := range scenarios {
		r := rand.New(rand.NewSource(int64(8000 + i)))
		s, err := workload.GenerateStar(r, workload.StarConfig{
			FactRows: factRows, FactFeats: 4,
			DimRows: []int{max(sc.dimRows, 2)}, DimFeats: []int{24},
			Task: workload.RegressionTask, Noise: 0.1, DimSignal: 1,
		})
		if err != nil {
			return t, err
		}
		design, err := factorized.NewStar(s.X[0], s.FKs[1:], s.X[1:])
		if err != nil {
			return t, err
		}
		task := core.Task{Loss: opt.Squared{}, L2: 0.01, MaxIter: 10}
		res, err := core.TrainNormalized(design, s.Y, task, core.Options{})
		if err != nil {
			return t, err
		}
		altName := sc.alt[res.Plan]
		timePlan := func(plan string) (time.Duration, error) {
			start := time.Now()
			_, err := core.TrainNormalized(design, s.Y, task, core.Options{ForcePlan: plan})
			return time.Since(start), err
		}
		tChosen, err := timePlan(res.Plan)
		if err != nil {
			return t, err
		}
		tAlt, err := timePlan(altName)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			sc.name, res.Plan, d(tChosen), d(tAlt), fmt.Sprint(tChosen <= tAlt*2),
		})
	}
	return t, nil
}

// E2b runs the k-means pruning ablation the DESIGN calls out: the
// triangle-inequality bound must cut distance evaluations without changing
// the clustering.
func EKMeansPruning(quick bool) (Table, error) {
	t := Table{
		ID:     "E-ABL1",
		Title:  "ablation: k-means triangle-inequality pruning",
		Header: []string{"variant", "dist_evals", "time", "inertia"},
	}
	n := scale(quick, 50000)
	r := rand.New(rand.NewSource(9000))
	x, _, _ := workload.ClusteredPoints(r, n, 8, 8, 1.5)
	for _, pruned := range []bool{false, true} {
		km := &ml.KMeans{K: 8, Seed: 5, Pruned: pruned, MaxIter: 30}
		start := time.Now()
		if err := km.Fit(x); err != nil {
			return t, err
		}
		name := "lloyd"
		if pruned {
			name = "lloyd+pruning"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(km.DistEval), d(time.Since(start)), f(km.Inertia(x))})
	}
	return t, nil
}
