package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"dmml/internal/compress"
	"dmml/internal/dml"
	"dmml/internal/featureng"
	"dmml/internal/la"
	"dmml/internal/modeldb"
	"dmml/internal/modelsel"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/paramserver"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

// E5Rewrites reproduces the SystemML rewrite shape: optimized expression
// plans dominate naive evaluation on fusion- and reordering-sensitive
// expressions.
func E5Rewrites(quick bool) (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "declarative ML rewrites: naive vs optimized evaluation (SystemML)",
		Header: []string{"expression", "t_naive", "t_optimized", "speedup", "cells_naive", "cells_opt"},
	}
	n := scale(quick, 200000)
	side := 400
	if quick {
		side = 120
	}
	r := rand.New(rand.NewSource(10000))
	x, _, _ := workload.Regression(r, n, 20, 0)
	a, _, _ := workload.Regression(r, side, side, 0)
	b, _, _ := workload.Regression(r, side, side, 0)
	v, _, _ := workload.Regression(r, side, 1, 0)
	env := dml.Env{
		"X": dml.Matrix(x), "A": dml.Matrix(a), "B": dml.Matrix(b), "v": dml.Matrix(v),
	}
	cases := []string{
		"sum(X ^ 2)",
		"trace(A %*% B)",
		"A %*% B %*% v",
		"sum(X + X)",
	}
	reps := 5
	// Loop-invariant code motion gets its own row: a Gram-form GD loop whose
	// invariant products hoist out.
	licmSrc := `
w = 0 * t(X) %*% y2
for (it in 1:10) {
  w = w - 0.000005 * (t(X) %*% X %*% w - t(X) %*% y2)
}
sum(w ^ 2)`
	y2 := la.NewDense(n, 1)
	for i := 0; i < n; i++ {
		y2.Set(i, 0, r.NormFloat64())
	}
	env["y2"] = dml.Matrix(y2)
	cases = append(cases, licmSrc)
	rowName := func(src string) string {
		if src == licmSrc {
			return "GD loop (LICM)"
		}
		return src
	}
	for _, src := range cases {
		p, err := dml.Parse(src)
		if err != nil {
			return t, err
		}
		optProg := p.Optimize(dml.ShapesFromEnv(env))

		var naiveStats, optStats *dml.EvalStats
		start := time.Now()
		for k := 0; k < reps; k++ {
			if _, naiveStats, err = p.Run(env); err != nil {
				return t, err
			}
		}
		tNaive := time.Since(start)
		start = time.Now()
		for k := 0; k < reps; k++ {
			if _, optStats, err = optProg.Run(env); err != nil {
				return t, err
			}
		}
		tOpt := time.Since(start)
		t.Rows = append(t.Rows, []string{
			rowName(src), d(tNaive), d(tOpt), f(float64(tNaive) / float64(tOpt)),
			fmt.Sprint(naiveStats.CellsAllocated), fmt.Sprint(optStats.CellsAllocated),
		})
	}
	return t, nil
}

// E7ModelSearch reproduces the TuPAQ shape: successive halving matches grid
// search's best configuration at a fraction of the training epochs.
func E7ModelSearch(quick bool) (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "model selection: grid vs successive halving (TuPAQ)",
		Header: []string{"strategy", "configs", "total_epochs", "best_val_acc", "time"},
	}
	n := scale(quick, 20000)
	r := rand.New(rand.NewSource(11000))
	x, y, _ := workload.Classification(r, n, 20, 0.05)
	split := n * 3 / 4
	trainIdx := seq(0, split)
	valIdx := seq(split, n)
	tr := &modelsel.SGDTrainer{
		XTrain: x.SelectRows(trainIdx), YTrain: slice(y, trainIdx),
		XVal: x.SelectRows(valIdx), YVal: slice(y, valIdx),
		Seed: 11,
	}
	configs := modelsel.Grid(map[string][]float64{
		"step": {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0},
		"l2":   {0, 0.0001, 0.01, 0.1},
	})
	maxEpochs := 16

	start := time.Now()
	gridRes, gridStats, err := modelsel.EvaluateAll(tr, configs, maxEpochs)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"grid (full budget)", fmt.Sprint(len(configs)), fmt.Sprint(gridStats.TotalEpochs),
		f(gridRes[0].Score), d(time.Since(start)),
	})

	start = time.Now()
	batched, err := modelsel.TrainBatched(tr, configs, maxEpochs)
	if err != nil {
		return t, err
	}
	bestBatched := 0.0
	for _, b := range batched {
		if b.Score > bestBatched {
			bestBatched = b.Score
		}
	}
	t.Rows = append(t.Rows, []string{
		"grid (batched scan)", fmt.Sprint(len(configs)), fmt.Sprint(len(configs) * maxEpochs),
		f(bestBatched), d(time.Since(start)),
	})

	start = time.Now()
	shRes, shStats, err := modelsel.SuccessiveHalving(tr, configs, 1, maxEpochs, 2)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"successive halving", fmt.Sprint(len(configs)), fmt.Sprint(shStats.TotalEpochs),
		f(shRes[0].Score), d(time.Since(start)),
	})
	reg, err := e7Registry(x, y, shRes, maxEpochs)
	if err != nil {
		return t, err
	}
	t.Notes = fmt.Sprintf("epoch savings: %.1fx fewer epochs for successive halving; batching amortizes the scan across all %d configs; %s",
		float64(gridStats.TotalEpochs)/float64(shStats.TotalEpochs), len(configs), reg)
	return t, nil
}

// e7Registry logs the successive-halving results into a ModelDB store, worst
// first, each run the parent of the next and all tagged with the dataset's
// hash, and reports what the registry answers: the best run's val_acc, the
// depth of its lineage, the runs that reached the full budget of maxEpochs,
// and whether the store's JSON round trip returns the same best run.
func e7Registry(x *la.Dense, y []float64, results []modelsel.Result, maxEpochs int) (string, error) {
	const name = "e7-logistic"
	store := modeldb.NewStore()
	hash := modeldb.DatasetHash(x, y)
	parent := -1
	for i := len(results) - 1; i >= 0; i-- {
		run, err := store.Log(modeldb.Spec{
			Name:        name,
			DatasetHash: hash,
			Config:      results[i].Config,
			Metrics:     map[string]float64{"val_acc": results[i].Score, "epochs": float64(results[i].Epochs)},
			ParentID:    parent,
		})
		if err != nil {
			return "", err
		}
		parent = run.ID
	}
	best, err := store.Best(name, "val_acc", true)
	if err != nil {
		return "", err
	}
	chain, err := store.Lineage(best.ID)
	if err != nil {
		return "", err
	}
	full := store.Query(func(r modeldb.Run) bool { return r.Metrics["epochs"] >= float64(maxEpochs) })
	var saved bytes.Buffer
	if err := store.Save(&saved); err != nil {
		return "", err
	}
	loaded, err := modeldb.Load(&saved)
	if err != nil {
		return "", err
	}
	reBest, err := loaded.Best(name, "val_acc", true)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("registry: best val_acc %s, lineage depth %d, %d configs at the full budget, reload keeps best: %v",
		f(best.Metrics["val_acc"]), len(chain), len(full), reflect.DeepEqual(reBest, best)), nil
}

// E8ColumbusReuse reproduces the Columbus shape: Gram-matrix reuse answers a
// batch of feature-subset explorations with one data pass.
func E8ColumbusReuse(quick bool) (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "feature-subset exploration with intermediate reuse (Columbus)",
		Header: []string{"strategy", "subsets", "data_passes", "time", "max_mse_delta"},
	}
	n := scale(quick, 100000)
	dFeats := 40
	r := rand.New(rand.NewSource(12000))
	x, y, _ := workload.Regression(r, n, dFeats, 0.2)
	subsets := make([][]int, 30)
	for i := range subsets {
		subsets[i] = r.Perm(dFeats)[:10+r.Intn(10)]
	}
	start := time.Now()
	naiveFits, naiveStats, err := (&featureng.Explorer{L2: 0.01}).Explore(x, y, subsets)
	if err != nil {
		return t, err
	}
	tNaive := time.Since(start)
	start = time.Now()
	reuseFits, reuseStats, err := (&featureng.Explorer{Reuse: true, L2: 0.01}).Explore(x, y, subsets)
	if err != nil {
		return t, err
	}
	tReuse := time.Since(start)
	maxDelta := 0.0
	for i := range naiveFits {
		dlt := naiveFits[i].TrainMSE - reuseFits[i].TrainMSE
		if dlt < 0 {
			dlt = -dlt
		}
		if dlt > maxDelta {
			maxDelta = dlt
		}
	}
	t.Rows = append(t.Rows, []string{"naive (rescan per subset)", "30", fmt.Sprint(naiveStats.DataPasses), d(tNaive), "0"})
	t.Rows = append(t.Rows, []string{"gram reuse", "30", fmt.Sprint(reuseStats.DataPasses), d(tReuse), f(maxDelta)})
	t.Notes = fmt.Sprintf("speedup %.1fx with identical models (max MSE delta %.2g)",
		float64(tNaive)/float64(tReuse), maxDelta)
	return t, nil
}

// E9ParamServer reproduces the parameter-server shape: async throughput
// exceeds BSP under per-RPC latency, while all modes converge.
func E9ParamServer(quick bool) (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "parameter server: BSP vs SSP vs async under injected RPC latency",
		Header: []string{"cluster", "mode", "workers", "time", "worker_idle", "final_loss", "pushes"},
	}
	n := scale(quick, 20000)
	r := rand.New(rand.NewSource(13000))
	x, y, _ := workload.Classification(r, n, 16, 0.02)
	latency := 50 * time.Microsecond
	if quick {
		latency = 10 * time.Microsecond
	}
	straggler := 2 * time.Millisecond
	if quick {
		straggler = 500 * time.Microsecond
	}
	for _, sc := range []struct {
		name  string
		delay time.Duration
	}{{"uniform", 0}, {"straggler", straggler}} {
		for _, mode := range []paramserver.Mode{paramserver.BSP, paramserver.SSP, paramserver.Async} {
			for _, workers := range []int{2, 8} {
				ps, err := paramserver.NewServer(16, 4, paramserver.Network{Latency: latency})
				if err != nil {
					return t, err
				}
				start := time.Now()
				res, err := paramserver.Train(ps, x, y, opt.Logistic{}, paramserver.TrainConfig{
					Workers: workers, Epochs: 3, BatchSize: 64,
					Step: 0.5, Decay: 0.5, Mode: mode, Staleness: 3, Seed: 13,
					StragglerDelay: sc.delay,
				})
				if err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					sc.name, mode.String(), fmt.Sprint(workers), d(time.Since(start)),
					d(res.WorkerIdle), f(res.FinalLoss), fmt.Sprint(res.Pushes),
				})
			}
		}
	}
	t.Notes = "with a straggler, BSP workers idle at barriers; SSP bounds the idling; async never waits"
	return t, nil
}

// E11BufferPool reproduces the out-of-core shape: iterative access to raw
// (uncompressed) row blocks through a shrinking buffer-pool byte budget
// degrades gracefully until the working set thrashes.
func E11BufferPool(quick bool) (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "out-of-core iteration through a buffer pool (memory budget sweep)",
		Header: []string{"pool_pages", "total_pages", "time", "hits", "misses", "spill_reads"},
		Notes:  "capacity ≥ working set: all hits after load; below: misses/reloads grow",
	}
	rows := scale(quick, 80000)
	cols := 16
	pageRows := rows / 64 // 64 pages
	r := rand.New(rand.NewSource(14000))
	x, _, _ := workload.Regression(r, rows, cols, 0)
	v := make([]float64, cols)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	passes := 5
	// The pool holds capacity pages of the size the builder writes: a
	// NoCompress block pages as compress.Uncompressed, its data plus headers.
	pageBytes := 8 * int64(compress.EncodedLen(compress.Uncompressed(x.Slice(0, pageRows, 0, cols))))
	dir, err := tmpDir()
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	for _, capacity := range []int64{64, 16, 4} {
		bp, err := storage.NewBufferPoolBytes(capacity*pageBytes, filepath.Join(dir, fmt.Sprint(capacity)))
		if err != nil {
			return t, err
		}
		m, err := ooc.FromDense(bp, x, ooc.Options{BlockRows: pageRows, NoCompress: true})
		if err != nil {
			return t, err
		}
		bp.ResetStats()
		out := make([]float64, rows)
		start := time.Now()
		for p := 0; p < passes; p++ {
			if err := m.MatVec(out, v); err != nil {
				return t, err
			}
		}
		elapsed := time.Since(start)
		st := bp.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(capacity), fmt.Sprint(m.NumBlocks()), d(elapsed),
			fmt.Sprint(st.Hits), fmt.Sprint(st.Misses), fmt.Sprint(st.SpillReads),
		})
		if err := m.Drop(); err != nil {
			return t, err
		}
	}
	return t, nil
}

// E12ReuseAcrossCV reproduces the lifecycle reuse shape: cross-validated
// hyperparameter sweeps that share per-fold Gram blocks beat recompute-
// per-config by the pass ratio.
func E12ReuseAcrossCV(quick bool) (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "intermediate reuse across CV folds × ridge configs",
		Header: []string{"strategy", "lambdas", "folds", "data_passes", "time", "best_lambda"},
	}
	n := scale(quick, 60000)
	r := rand.New(rand.NewSource(15000))
	x, y, _ := workload.Regression(r, n, 24, 0.5)
	lambdas := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000}
	k := 5

	start := time.Now()
	naive, naivePasses, err := modelsel.RidgeCVNaive(x, y, lambdas, k, 21)
	if err != nil {
		return t, err
	}
	tNaive := time.Since(start)
	start = time.Now()
	shared, sharedPasses, err := modelsel.RidgeCVShared(x, y, lambdas, k, 21)
	if err != nil {
		return t, err
	}
	tShared := time.Since(start)
	t.Rows = append(t.Rows, []string{
		"naive", fmt.Sprint(len(lambdas)), fmt.Sprint(k), fmt.Sprint(naivePasses), d(tNaive), f(naive[0].Lambda),
	})
	t.Rows = append(t.Rows, []string{
		"shared gram", fmt.Sprint(len(lambdas)), fmt.Sprint(k), fmt.Sprint(sharedPasses), d(tShared), f(shared[0].Lambda),
	})
	t.Notes = fmt.Sprintf("speedup %.1fx, both select λ=%g", float64(tNaive)/float64(tShared), shared[0].Lambda)
	return t, nil
}

// E14FaultTolerance reproduces the fault-tolerance shape real parameter
// servers are built around: with per-RPC request loss, latency jitter, and a
// deterministic worker kill injected, every coordination mode still completes
// — transient failures are absorbed by bounded retry/backoff, the killed
// worker is restarted from the shared clock, and periodic checkpoints bound
// the work lost to a fatal crash — at a final loss matching the fault-free
// run.
func E14FaultTolerance(quick bool) (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "parameter server under injected faults: retry, restart, checkpoint",
		Header: []string{"mode", "faults", "time", "retries", "timeouts", "recoveries", "final_loss"},
	}
	n := scale(quick, 20000)
	r := rand.New(rand.NewSource(15000))
	x, y, _ := workload.Classification(r, n, 16, 0.02)
	jitter := 20 * time.Microsecond
	if quick {
		jitter = 5 * time.Microsecond
	}
	dir, err := tmpDir()
	if err != nil {
		return t, err
	}
	defer os.RemoveAll(dir)
	for _, mode := range []paramserver.Mode{paramserver.BSP, paramserver.SSP, paramserver.Async} {
		for _, faulty := range []bool{false, true} {
			var network paramserver.Network
			cfg := paramserver.TrainConfig{
				Workers: 4, Epochs: 4, BatchSize: 64,
				Step: 0.5, Decay: 0.5, Mode: mode, Staleness: 3, Seed: 15,
			}
			if faulty {
				network.Faults = &paramserver.FaultConfig{
					FailProb:   0.05,
					Jitter:     jitter,
					KillAtTick: map[int]int{1: 8},
					Seed:       15,
				}
				cfg.MaxWorkerRestarts = 2
				cfg.Checkpoint = paramserver.CheckpointConfig{Path: filepath.Join(dir, mode.String()+".ck"), Every: 64}
			}
			ps, err := paramserver.NewServer(16, 4, network)
			if err != nil {
				return t, err
			}
			start := time.Now()
			res, err := paramserver.Train(ps, x, y, opt.Logistic{}, cfg)
			if err != nil {
				return t, err
			}
			label := "off"
			if faulty {
				label = "on"
			}
			t.Rows = append(t.Rows, []string{
				mode.String(), label, d(time.Since(start)),
				fmt.Sprint(res.Retries), fmt.Sprint(res.Timeouts), fmt.Sprint(res.Recoveries),
				f(res.FinalLoss),
			})
		}
	}
	t.Notes = "5% request loss + one worker kill: retries absorb the losses, the restarted worker rejoins at the clock, final loss matches the fault-free run"
	return t, nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func slice(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// EColumnCoCoding is the CLA co-coding ablation the DESIGN calls out:
// correlated low-cardinality columns compress better (and their ops run
// faster) when co-coded into one group.
func EColumnCoCoding(quick bool) (Table, error) {
	t := Table{
		ID:    "E-ABL2",
		Title: "ablation: CLA column co-coding on correlated columns",
		Header: []string{"co-coding", "groups", "ratio", "t_matvec",
			"result_delta"},
	}
	n := scale(quick, 300000)
	r := rand.New(rand.NewSource(16000))
	// Six columns in three perfectly correlated pairs (e.g. country ↔
	// currency in a log table), plus Zipf skew.
	m := la.NewDense(n, 6)
	for i := 0; i < n; i++ {
		for p := 0; p < 3; p++ {
			v := float64(r.Intn(6))
			m.Set(i, 2*p, v)
			m.Set(i, 2*p+1, v*10+float64(p))
		}
	}
	v := make([]float64, 6)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	var baseline []float64
	reps := 10
	for _, coCode := range []bool{false, true} {
		cm := compress.Compress(m, compress.Options{CoCode: coCode})
		start := time.Now()
		var out []float64
		for k := 0; k < reps; k++ {
			out = cm.MatVec(v)
		}
		elapsed := time.Since(start)
		delta := 0.0
		if baseline == nil {
			baseline = out
		} else {
			for i := range out {
				if dd := out[i] - baseline[i]; dd > delta {
					delta = dd
				} else if -dd > delta {
					delta = -dd
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(coCode), strings.Join(cm.GroupInfo(), " "),
			f(cm.CompressionRatio()), d(elapsed), f(delta),
		})
	}
	t.Notes = "co-coding merges correlated pairs: fewer groups (encoding[columns] each), higher ratio, same results"
	return t, nil
}

// E15Fusion reproduces the SPOOF operator-fusion shape: fused cell,
// row-aggregate and row templates evaluate a whole elementwise region in one
// pass over the data, eliminating the intermediate matrices a materialized
// pipeline allocates. Both sides run the full rewrite pipeline (CSE,
// reordering, LICM); the only difference is the fusion pass, so the deltas
// isolate fusion itself.
func E15Fusion(quick bool) (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "operator fusion: fused cell/row templates vs materialized pipelines (SPOOF)",
		Header: []string{"expression", "t_unfused", "t_fused", "speedup", "cells_unfused", "cells_fused", "alloc_ratio"},
	}
	n := scale(quick, 200000)
	r := rand.New(rand.NewSource(15000))
	x, _, _ := workload.Regression(r, n, 20, 0)
	y, _, _ := workload.Regression(r, n, 20, 0)
	w, _, _ := workload.Regression(r, 20, 1, 0)
	labels, _, _ := workload.Regression(r, n, 1, 0)
	env := dml.Env{
		"X": dml.Matrix(x), "Y": dml.Matrix(y), "w": dml.Matrix(w), "y2": dml.Matrix(labels),
	}
	// A GD loop whose gradient t(X) %*% (sigmoid(X %*% w2) - y2) runs as
	// one Row region (one pass over X) and whose weight update fuses.
	gdSrc := `
w2 = w * 0
for (it in 1:8) {
  g = t(X) %*% (sigmoid(X %*% w2) - y2)
  w2 = w2 - 0.0001 * g
}
sum(w2 ^ 2)`
	// The same loop written as two statements, like bench/scripts/logreg.dml:
	// the Row template pairs them, so X is read once per iteration.
	gdPairSrc := `
w2 = w * 0
for (it in 1:8) {
  p = sigmoid(X %*% w2)
  w2 = w2 - 0.0001 * (t(X) %*% (p - y2))
}
sum(w2 ^ 2)`
	cases := []string{
		"sigmoid(X * 2 + 1) * X - X / 3",
		"sum((X - Y) ^ 2)",
		"rowSums(X * X + Y)",
		"(X * 2 + Y) %*% w",
		gdSrc,
		gdPairSrc,
	}
	rowName := func(src string) string {
		switch src {
		case gdSrc:
			return "logistic GD loop (fused update)"
		case gdPairSrc:
			return "logistic GD loop (two statements)"
		}
		return src
	}
	reps := 3
	var totalUn, totalFu int64
	for _, src := range cases {
		p, err := dml.Parse(src)
		if err != nil {
			return t, err
		}
		shapes := dml.ShapesFromEnv(env)
		unfused := p.OptimizeUnfused(shapes)
		fused := p.Optimize(shapes)

		var unStats, fuStats *dml.EvalStats
		start := time.Now()
		for k := 0; k < reps; k++ {
			if _, unStats, err = unfused.Run(env); err != nil {
				return t, err
			}
		}
		tUn := time.Since(start)
		start = time.Now()
		for k := 0; k < reps; k++ {
			if _, fuStats, err = fused.Run(env); err != nil {
				return t, err
			}
		}
		tFu := time.Since(start)
		if fuStats.FusedRegions == 0 {
			return t, fmt.Errorf("experiments: E15: %q compiled without fused regions", rowName(src))
		}
		totalUn += unStats.CellsAllocated
		totalFu += fuStats.CellsAllocated
		ratio := "inf"
		if fuStats.CellsAllocated > 0 {
			ratio = f(float64(unStats.CellsAllocated) / float64(fuStats.CellsAllocated))
		}
		t.Rows = append(t.Rows, []string{
			rowName(src), d(tUn), d(tFu), f(float64(tUn) / float64(tFu)),
			fmt.Sprint(unStats.CellsAllocated), fmt.Sprint(fuStats.CellsAllocated), ratio,
		})
	}
	t.Notes = fmt.Sprintf(
		"both sides run CSE/reordering/LICM; fusion cuts intermediate cell allocation %sx overall (%d -> %d cells)",
		f(float64(totalUn)/float64(totalFu)), totalUn, totalFu)
	return t, nil
}
