package experiments

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Integration smoke: every experiment runs at quick scale and produces a
// well-formed table.
func TestAllExperimentsRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if len(All) != 19 {
		t.Fatalf("registry lists %d experiments", len(All))
	}
	seen := map[string]bool{}
	for _, e := range All {
		tbl, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tbl.ID != e.ID || tbl.Title == "" {
			t.Fatalf("%s: table metadata %q %q", e.ID, tbl.ID, tbl.Title)
		}
		if seen[tbl.ID] {
			t.Fatalf("duplicate table id %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%s row width %d != header %d", tbl.ID, len(row), len(tbl.Header))
			}
		}
		if !strings.Contains(tbl.String(), tbl.ID) {
			t.Fatalf("%s renders without its id", tbl.ID)
		}
	}
	// Experiments that spill or checkpoint remove their scratch directory.
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}

func cell(tbl Table, row int, col string) string {
	for i, h := range tbl.Header {
		if h == col {
			return tbl.Rows[row][i]
		}
	}
	return ""
}

func cellFloat(t *testing.T, tbl Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(tbl, row, col), 64)
	if err != nil {
		t.Fatalf("%s row %d col %s: %v", tbl.ID, row, col, err)
	}
	return v
}

// Shape check: E1's cost model must predict a clear factorized win at the
// top of the tuple-ratio sweep. The measured speedup is printed, not
// asserted.
func TestE1SpeedupGrowsWithTupleRatio(t *testing.T) {
	tbl, err := E1FactorizedVsMaterialized(true)
	if err != nil {
		t.Fatal(err)
	}
	lastRow := len(tbl.Rows) - 1
	if pred := cellFloat(t, tbl, lastRow, "predicted"); pred <= 1.5 {
		t.Fatalf("predicted speedup at TR=50 is %v", pred)
	}
}

// E1's materialized baseline trains over exactly the join: at every tuple
// ratio the relational engine's hash-joined matrix equals Materialize's bit
// for bit.
func TestE1HashJoinMatchesMaterialize(t *testing.T) {
	tbl, err := E1FactorizedVsMaterialized(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if got := cell(tbl, i, "join_exact"); got != "true" {
			t.Errorf("TR=%s: join_exact = %q, want true", cell(tbl, i, "tuple_ratio"), got)
		}
	}
}

// Shape check: Hamlet's safe-to-avoid scenario shows a near-zero accuracy
// gap, the keep-the-join scenario a positive one.
func TestE2GapShapes(t *testing.T) {
	tbl, err := E2HamletRule(true)
	if err != nil {
		t.Fatal(err)
	}
	if cell(tbl, 0, "rule_says") != "avoid" {
		t.Fatalf("row 0 verdict = %s", cell(tbl, 0, "rule_says"))
	}
	if gap := cellFloat(t, tbl, 0, "gap"); gap > 0.05 || gap < -0.05 {
		t.Fatalf("safe-to-avoid gap = %v", gap)
	}
	lastRow := len(tbl.Rows) - 1
	if cell(tbl, lastRow, "rule_says") != "keep" {
		t.Fatalf("last verdict = %s", cell(tbl, lastRow, "rule_says"))
	}
	if gap := cellFloat(t, tbl, lastRow, "gap"); gap < 0.03 {
		t.Fatalf("join-needed gap = %v, want clearly positive", gap)
	}
}

// Shape check: compression ratio of low-cardinality columns far exceeds the
// continuous column's.
func TestE3RatioShapes(t *testing.T) {
	tbl, err := E3CompressionRatio(true)
	if err != nil {
		t.Fatal(err)
	}
	var lowCardRatio, contRatio float64
	for i := range tbl.Rows {
		switch {
		case cell(tbl, i, "column") == "zipf" && cell(tbl, i, "cardinality") == "4":
			lowCardRatio = cellFloat(t, tbl, i, "ratio")
		case cell(tbl, i, "column") == "continuous":
			contRatio = cellFloat(t, tbl, i, "ratio")
		}
	}
	if lowCardRatio < 4 {
		t.Fatalf("low-card ratio = %v", lowCardRatio)
	}
	if contRatio > 1.05 {
		t.Fatalf("continuous ratio = %v, want ≈ 1", contRatio)
	}
	for i := range tbl.Rows {
		if got := cell(tbl, i, "lossless"); got != "true" {
			t.Errorf("%s column (card %s): lossless = %q, want true", cell(tbl, i, "column"), cell(tbl, i, "cardinality"), got)
		}
	}
}

// Shape check: successive halving uses far fewer epochs than grid while
// matching its best score within a small margin.
func TestE7SearchShapes(t *testing.T) {
	tbl, err := E7ModelSearch(true)
	if err != nil {
		t.Fatal(err)
	}
	gridEpochs := cellFloat(t, tbl, 0, "total_epochs")
	shEpochs := cellFloat(t, tbl, 2, "total_epochs")
	if shEpochs >= gridEpochs/2 {
		t.Fatalf("SH epochs %v not ≪ grid %v", shEpochs, gridEpochs)
	}
	gridAcc := cellFloat(t, tbl, 0, "best_val_acc")
	shAcc := cellFloat(t, tbl, 2, "best_val_acc")
	// Batched grid matches plain grid's best score while sharing scans.
	if batchedAcc := cellFloat(t, tbl, 1, "best_val_acc"); math.Abs(batchedAcc-gridAcc) > 0.05 {
		t.Fatalf("batched grid acc %v far from grid %v", batchedAcc, gridAcc)
	}
	if shAcc < gridAcc-0.05 {
		t.Fatalf("SH best acc %v far below grid %v", shAcc, gridAcc)
	}
	// The registry's best run is the halving row's, and survives a reload.
	want := "registry: best val_acc " + cell(tbl, 2, "best_val_acc") + ","
	if !strings.Contains(tbl.Notes, want) || !strings.HasSuffix(tbl.Notes, "reload keeps best: true") {
		t.Fatalf("notes %q: want %q and a reload that keeps the best run", tbl.Notes, want)
	}
}

// Shape check: Columbus reuse answers all subsets in exactly one data pass.
func TestE8ReuseShapes(t *testing.T) {
	tbl, err := E8ColumbusReuse(true)
	if err != nil {
		t.Fatal(err)
	}
	if passes := cell(tbl, 1, "data_passes"); passes != "1" {
		t.Fatalf("reuse passes = %s", passes)
	}
	if delta := cellFloat(t, tbl, 1, "max_mse_delta"); delta > 1e-6 {
		t.Fatalf("reuse changed models: delta %v", delta)
	}
}

// Shape check: E12 shared-gram CV performs k+1 passes vs k·|λ| for naive,
// and both pick the same λ.
func TestE12PassShapes(t *testing.T) {
	tbl, err := E12ReuseAcrossCV(true)
	if err != nil {
		t.Fatal(err)
	}
	if cell(tbl, 0, "data_passes") != "40" || cell(tbl, 1, "data_passes") != "6" {
		t.Fatalf("passes = %s vs %s", cell(tbl, 0, "data_passes"), cell(tbl, 1, "data_passes"))
	}
	if cell(tbl, 0, "best_lambda") != cell(tbl, 1, "best_lambda") {
		t.Fatal("strategies selected different lambdas")
	}
}

// Shape check: the planner picks factorized above the tuple-ratio crossover
// and materialized below it. Whether the chosen plan was also the faster one
// is printed in the wall-clock `correct` column, not asserted.
func TestE13PlannerCorrect(t *testing.T) {
	tbl, err := E13PlannerChoice(true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cell(tbl, 0, "chosen_plan"), "factorized") {
		t.Fatalf("TR=100 chose %s", cell(tbl, 0, "chosen_plan"))
	}
	if !strings.HasPrefix(cell(tbl, 1, "chosen_plan"), "materialized") {
		t.Fatalf("TR=0.2 chose %s", cell(tbl, 1, "chosen_plan"))
	}
}

// Shape check: pruning cuts k-means distance evaluations while preserving
// the objective value.
func TestAblationPruningShapes(t *testing.T) {
	tbl, err := EKMeansPruning(true)
	if err != nil {
		t.Fatal(err)
	}
	plain := cellFloat(t, tbl, 0, "dist_evals")
	pruned := cellFloat(t, tbl, 1, "dist_evals")
	if pruned >= plain {
		t.Fatalf("pruning did not cut evals: %v vs %v", pruned, plain)
	}
	iPlain := cellFloat(t, tbl, 0, "inertia")
	iPruned := cellFloat(t, tbl, 1, "inertia")
	ratio := iPruned / iPlain
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("pruning changed inertia: %v vs %v", iPruned, iPlain)
	}
}

// Shape check: co-coding merges the three correlated pairs into three
// groups, improves the ratio, and preserves results.
func TestAblationCoCodingShapes(t *testing.T) {
	tbl, err := EColumnCoCoding(true)
	if err != nil {
		t.Fatal(err)
	}
	if cell(tbl, 0, "groups") != "DDC1[0] DDC1[1] DDC1[2] DDC1[3] DDC1[4] DDC1[5]" ||
		cell(tbl, 1, "groups") != "DDC1[0 1] DDC1[2 3] DDC1[4 5]" {
		t.Fatalf("groups = %s vs %s", cell(tbl, 0, "groups"), cell(tbl, 1, "groups"))
	}
	if cellFloat(t, tbl, 1, "ratio") <= cellFloat(t, tbl, 0, "ratio") {
		t.Fatal("co-coding did not improve the ratio")
	}
	if cellFloat(t, tbl, 1, "result_delta") > 1e-9 {
		t.Fatal("co-coding changed results")
	}
}

// Shape check: E14's faulted runs must actually exercise the recovery
// machinery (retries > 0, exactly the injected kill recovered) and still
// land within 5% of the fault-free final loss, for every coordination mode.
func TestE14FaultToleranceShapes(t *testing.T) {
	tbl, err := E14FaultTolerance(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 modes × faults off/on)", len(tbl.Rows))
	}
	for r := 0; r < len(tbl.Rows); r += 2 {
		mode := cell(tbl, r, "mode")
		if cell(tbl, r, "faults") != "off" || cell(tbl, r+1, "faults") != "on" {
			t.Fatalf("row pair %d not (off, on): %v", r, tbl.Rows)
		}
		if cellFloat(t, tbl, r, "retries") != 0 || cellFloat(t, tbl, r, "recoveries") != 0 {
			t.Fatalf("%s: fault-free run recorded fault activity", mode)
		}
		if cellFloat(t, tbl, r+1, "retries") == 0 {
			t.Fatalf("%s: no retries under 5%% request loss", mode)
		}
		if cellFloat(t, tbl, r+1, "recoveries") < 1 {
			t.Fatalf("%s: injected kill was not recovered", mode)
		}
		clean := cellFloat(t, tbl, r, "final_loss")
		faulty := cellFloat(t, tbl, r+1, "final_loss")
		if math.Abs(faulty-clean) > 0.05*clean {
			t.Fatalf("%s: faulty loss %v vs fault-free %v (beyond 5%%)", mode, faulty, clean)
		}
	}
}

// Shape check: fusion must cut intermediate cell allocation by at least 3x
// overall and on every single-expression template row.
func TestE15FusionShapes(t *testing.T) {
	tbl, err := E15Fusion(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
	var un, fu float64
	for i := range tbl.Rows {
		un += cellFloat(t, tbl, i, "cells_unfused")
		fu += cellFloat(t, tbl, i, "cells_fused")
	}
	if un < 3*fu {
		t.Fatalf("fusion saved only %.2fx cells overall (%v vs %v)", un/fu, un, fu)
	}
	// The four single-expression template rows each save ≥3x on their own
	// (a fully-fused aggregate allocates zero cells; that row trivially passes).
	for i := 0; i < 4; i++ {
		unI := cellFloat(t, tbl, i, "cells_unfused")
		fuI := cellFloat(t, tbl, i, "cells_fused")
		if fuI > 0 && unI < 3*fuI {
			t.Fatalf("row %d (%s): fusion saved only %.2fx cells", i, tbl.Rows[i][0], unI/fuI)
		}
	}
}

// TestE17OutOfCoreInvariants pins the out-of-core training datapath claims on
// the structured results: the data really is 4x the budget, resident block
// memory never exceeds the budget on any variant, every variant trains, the
// raw-page baseline really thrashes (it evicts and re-reads from spill), and
// compression shrinks the paged footprint enough that the working set fits
// in budget. The wall-clock ratios between the variants are E17's printed
// `speedup` column, not assertions.
func TestE17OutOfCoreInvariants(t *testing.T) {
	results, err := e17Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("variants = %d, want 3", len(results))
	}
	byName := map[string]e17Result{}
	for _, r := range results {
		byName[r.variant] = r
		if r.denseBytes < 4*r.budget {
			t.Fatalf("%s: dense %d bytes is under 4x the %d-byte budget", r.variant, r.denseBytes, r.budget)
		}
		if r.maxResident > r.budget {
			t.Fatalf("%s: resident %d bytes exceeds the %d-byte budget", r.variant, r.maxResident, r.budget)
		}
		if r.maxResident == 0 {
			t.Fatalf("%s: residency probe never sampled", r.variant)
		}
		if r.finalLoss <= 0 || math.IsNaN(r.finalLoss) || r.finalLoss > math.Log(2) {
			t.Fatalf("%s: final loss %v did not improve on the w=0 loss ln2", r.variant, r.finalLoss)
		}
	}
	thrash, cla := byName["raw-thrash"], byName["cla"]
	// The raw baseline cannot fit 4x-budget pages: it must evict and re-read.
	if thrash.evictions == 0 || thrash.spillReads == 0 {
		t.Fatalf("raw-thrash did not thrash: evictions=%d spillReads=%d", thrash.evictions, thrash.spillReads)
	}
	// CLA shrinks the paged footprint at least 2x on quantized telemetry.
	if ratio := float64(cla.denseBytes) / float64(cla.pagedBytes); ratio < 2 {
		t.Fatalf("compression ratio %.2f < 2 (paged %d of dense %d)", ratio, cla.pagedBytes, cla.denseBytes)
	}
}

// TestE18FactorizedSnowflakeInvariants pins the join-tree engine's claims:
// both solvers land on the same model factorized as materialized (identical
// optimizer config — any delta is floating-point reassociation), and the
// cost model predicts a clear factorized win on this shape. The measured
// per-iteration ratio is E18's printed `speedup` column, not an assertion.
func TestE18FactorizedSnowflakeInvariants(t *testing.T) {
	results, width, err := e18Run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || width != 78 {
		t.Fatalf("got %d variants, width %d; want 4 variants of width 78", len(results), width)
	}
	byName := map[string]e18Result{}
	for _, r := range results {
		byName[r.variant] = r
		if math.IsNaN(r.finalLoss) || r.finalLoss < 0 {
			t.Fatalf("%s: final loss %v", r.variant, r.finalLoss)
		}
	}
	// Matched accuracy: identical config on both representations.
	for _, pair := range [][2]string{{"gd+factorized", "gd+materialized"}, {"ridge+factorized", "ridge+materialized"}} {
		fl, ml := byName[pair[0]].finalLoss, byName[pair[1]].finalLoss
		if diff := math.Abs(fl - ml); diff > 1e-6*(1+math.Abs(ml)) {
			t.Fatalf("%s loss %v vs %s loss %v", pair[0], fl, pair[1], ml)
		}
	}
	if pred := byName["gd+factorized"].predicted; pred < 3 {
		t.Fatalf("predicted GD speedup %.2f < 3 on the snowflake shape", pred)
	}
	if pred := byName["ridge+factorized"].predicted; pred < 3 {
		t.Fatalf("predicted Gram speedup %.2f < 3 on the snowflake shape", pred)
	}
}
