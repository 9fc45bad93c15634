// Package integration exercises whole pipelines across dmml's modules: raw
// CSV through the relational engine, feature transforms, the cost-based
// planner, and the model registry — the end-to-end workflow the paper's
// lifecycle discussion is about.
package integration

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"dmml/internal/core"
	"dmml/internal/dml"
	"dmml/internal/factorized"
	"dmml/internal/featureng"
	"dmml/internal/la"
	"dmml/internal/ml"
	"dmml/internal/modeldb"
	"dmml/internal/modelsel"
	"dmml/internal/opt"
	"dmml/internal/relational"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

// TestCSVToModelPipeline drives: generate star → write CSV → read CSV →
// hash join → standardize → planner training → registry logging.
func TestCSVToModelPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(500))
	star, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 2000, FactFeats: 3,
		DimRows: []int{50}, DimFeats: []int{4},
		Task: workload.RegressionTask, Noise: 0.1, DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fact, dims, err := star.Tables()
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip both tables through CSV files.
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.csv")
	dimPath := filepath.Join(dir, "dim.csv")
	if err := storage.WriteCSVFile(factPath, fact); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteCSVFile(dimPath, dims[0]); err != nil {
		t.Fatal(err)
	}
	factBack, err := storage.ReadCSVFile(factPath, fact.Schema(), true)
	if err != nil {
		t.Fatal(err)
	}
	dimBack, err := storage.ReadCSVFile(dimPath, dims[0].Schema(), true)
	if err != nil {
		t.Fatal(err)
	}

	// Join, project features, transform, and train through the planner.
	joined, err := relational.HashJoin(factBack, dimBack, "fk0", "id",
		relational.JoinOptions{DropRightKey: true})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"f0", "f1", "f2", "d0_0", "d0_1", "d0_2", "d0_3"}
	x, err := storage.ToMatrix(joined, cols)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := joined.Floats("label")
	if err != nil {
		t.Fatal(err)
	}

	std := &featureng.Standardizer{}
	if err := std.Fit(x); err != nil {
		t.Fatal(err)
	}
	xStd, err := std.Apply(x)
	if err != nil {
		t.Fatal(err)
	}

	res, err := core.TrainJoined(xStd, labels, core.Task{Loss: core.SquaredLoss, L2: 0.01}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := la.MatVec(xStd, res.W)
	if r2 := ml.R2(pred, labels); r2 < 0.95 {
		t.Fatalf("pipeline R² = %v", r2)
	}

	// Log the run with full lineage and round-trip the registry.
	store := modeldb.NewStore()
	run, err := store.Log(modeldb.Spec{
		Name:        "star-regression",
		DatasetHash: modeldb.DatasetHash(xStd, labels),
		Transforms:  []string{"hashjoin(fk0=id)", std.Name()},
		Config:      map[string]float64{"l2": 0.01},
		Metrics:     map[string]float64{"train_loss": res.FinalLoss},
		Weights:     res.W,
		ParentID:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := modeldb.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Get(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Weights) != len(res.W) || got.Transforms[1] != "standardize" {
		t.Fatalf("registry round trip lost data: %+v", got)
	}
}

// TestDMLReplicatesPlannerModel verifies the declarative language computes
// the same ridge solution as the planner's direct path on the same data.
func TestDMLReplicatesPlannerModel(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	x, y, _ := workload.Regression(r, 800, 5, 0.05)
	ym := la.NewDense(len(y), 1)
	for i, v := range y {
		ym.Set(i, 0, v)
	}

	prog, err := dml.Parse(`
G = t(X) %*% X + 0.5 * eye(ncol(X))
w = solve(G, t(X) %*% y)
w`)
	if err != nil {
		t.Fatal(err)
	}
	env := dml.Env{"X": dml.Matrix(x), "y": dml.Matrix(ym)}
	prog = prog.Optimize(dml.ShapesFromEnv(env))
	v, _, err := prog.Run(env)
	if err != nil {
		t.Fatal(err)
	}

	res, err := core.TrainJoined(x, y, core.Task{Loss: core.SquaredLoss, L2: 0.5},
		core.Options{ForcePlan: "dense+direct"})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.W {
		if math.Abs(v.M.At(j, 0)-res.W[j]) > 1e-8 {
			t.Fatalf("DML w[%d]=%v vs planner %v", j, v.M.At(j, 0), res.W[j])
		}
	}
}

// TestFactorizedThroughSearchAndCV composes factorized data access with the
// model-selection machinery: successive halving over SGD configs trained on
// a materialized view, cross-validated ridge on the same data, and agreement
// between factorized and materialized gradients throughout.
func TestFactorizedThroughSearchAndCV(t *testing.T) {
	r := rand.New(rand.NewSource(502))
	star, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 3000, FactFeats: 4,
		DimRows: []int{60}, DimFeats: []int{5},
		Task: workload.ClassificationTask, Noise: 0.05, DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := factorized.NewStar(star.FactX, star.FKs, star.DimX)
	if err != nil {
		t.Fatal(err)
	}
	m := design.Materialize()

	// Gradients agree between representations at a random point.
	w := make([]float64, design.Cols())
	for j := range w {
		w[j] = r.NormFloat64()
	}
	_, gFact, err := opt.LossAndGradient(design, star.Y, w, opt.Logistic{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	_, gMat, err := opt.LossAndGradient(opt.DenseData{M: m}, star.Y, w, opt.Logistic{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range gFact {
		if math.Abs(gFact[j]-gMat[j]) > 1e-9 {
			t.Fatalf("gradient mismatch at %d", j)
		}
	}

	// Hyperparameter search over the materialized view.
	split := 2250
	tr := &modelsel.SGDTrainer{
		XTrain: m.Slice(0, split, 0, m.Cols()), YTrain: star.Y[:split],
		XVal: m.Slice(split, 3000, 0, m.Cols()), YVal: star.Y[split:],
		Seed: 1,
	}
	res, stats, err := modelsel.SuccessiveHalving(tr,
		modelsel.Grid(map[string][]float64{"step": {0.01, 0.1, 0.5}, "l2": {0, 0.01}}),
		1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score < 0.85 {
		t.Fatalf("best config accuracy = %v", res[0].Score)
	}
	if stats.TotalEpochs >= 6*8 {
		t.Fatalf("successive halving used full budget: %d", stats.TotalEpochs)
	}

	// Ridge CV over the regression view of the same design.
	yReal := la.MatVec(m, star.WTrue)
	cv, passes, err := modelsel.RidgeCVShared(m, yReal, []float64{1e-6, 1, 1e4}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 4 {
		t.Fatalf("shared CV passes = %d", passes)
	}
	if cv[0].Lambda != 1e-6 {
		t.Fatalf("noise-free CV picked λ=%v, want the smallest", cv[0].Lambda)
	}
}

// TestRelationalAggregationFeeds exercises group-by as a feature builder:
// per-group aggregates of the fact table become features of a dimension-
// level model.
func TestRelationalAggregationFeeds(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "cust", Type: storage.Int64},
		storage.Field{Name: "amount", Type: storage.Float64},
	)
	tb := storage.NewTable(schema)
	r := rand.New(rand.NewSource(503))
	trueMean := map[int64]float64{}
	for c := int64(0); c < 20; c++ {
		mu := float64(c) * 2
		trueMean[c] = mu
		for k := 0; k < 50; k++ {
			if err := tb.AppendRow(c, mu+r.NormFloat64()*0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg, err := relational.GroupBy(tb, "cust", []relational.Agg{
		{Col: "amount", Fn: relational.Mean},
		{Col: "amount", Fn: relational.Count},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 20 {
		t.Fatalf("groups = %d", agg.NumRows())
	}
	custs, _ := agg.Ints("cust")
	means, _ := agg.Floats("amount_mean")
	for i, c := range custs {
		if math.Abs(means[i]-trueMean[c]) > 0.1 {
			t.Fatalf("group %d mean = %v, want %v", c, means[i], trueMean[c])
		}
	}
	counts, _ := agg.Ints("count")
	for _, n := range counts {
		if n != 50 {
			t.Fatalf("count = %d", n)
		}
	}
}
