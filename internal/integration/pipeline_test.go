// Package integration exercises whole pipelines across dmml's modules: a
// relational join through CSV, the cost-based planner, and the model
// registry — the end-to-end workflow the paper's lifecycle discussion is
// about.
package integration

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dmml/internal/core"
	"dmml/internal/dml"
	"dmml/internal/factorized"
	"dmml/internal/la"
	"dmml/internal/modeldb"
	"dmml/internal/modelsel"
	"dmml/internal/opt"
	"dmml/internal/relational"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

// TestCSVToModelPipeline drives: generate star → hash join → project to a
// numeric matrix → write CSV → read it back through the matrix CSV reader
// DML's read() uses → check it against the materialized star → planner
// training over the star's join tree → registry logging.
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
	tables, err := star.Tables()
	if err != nil {
		t.Fatal(err)
	}

	// Join and project features plus the label.
	joined, err := relational.HashJoin(tables[0], tables[1], "fk1", "id")
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"x0_0", "x0_1", "x0_2", "x1_0", "x1_1", "x1_2", "x1_3", "label"}
	xy, err := storage.ToMatrix(joined, cols)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the matrix through a CSV file.
	path := filepath.Join(t.TempDir(), "joined.csv")
	var csv bytes.Buffer
	for i := 0; i < xy.Rows(); i++ {
		for j, v := range xy.RowView(i) {
			if j > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		csv.WriteByte('\n')
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadMatrixCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(xy, 0) {
		t.Fatal("CSV round trip changed the matrix")
	}
	d := len(cols) - 1
	x := back.Slice(0, back.Rows(), 0, d)
	labels := back.Col(d)
	if !x.Equal(star.Materialize(), 0) {
		t.Fatal("the joined CSV's features differ from the materialized star")
	}

	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrainNormalized(design, labels, core.Task{L2: 0.01}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := rSquared(la.MatVec(x, res.W), labels); r2 < 0.95 {
		t.Fatalf("pipeline R² = %v", r2)
	}

	// Log the run with full lineage and round-trip the registry.
	store := modeldb.NewStore()
	run, err := store.Log(modeldb.Spec{
		Name:        "star-regression",
		DatasetHash: modeldb.DatasetHash(x, labels),
		Transforms:  []string{"hashjoin(fk1=id)", "csv"},
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
	got, err := loaded.Latest("star-regression")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != run.ID || len(got.Weights) != len(res.W) || got.Transforms[1] != "csv" {
		t.Fatalf("registry round trip lost data: %+v", got)
	}
}

// rSquared is the coefficient of determination of pred against truth.
func rSquared(pred, truth []float64) float64 {
	mean := 0.0
	for _, v := range truth {
		mean += v
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i, v := range truth {
		ssRes += (v - pred[i]) * (v - pred[i])
		ssTot += (v - mean) * (v - mean)
	}
	return 1 - ssRes/ssTot
}

// TestDMLReplicatesPlannerModel verifies the declarative language, over the
// materialized join, computes the same ridge solution as the planner's
// factorized direct path over the normalized star.
func TestDMLReplicatesPlannerModel(t *testing.T) {
	r := rand.New(rand.NewSource(501))
	star, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 800, FactFeats: 3,
		DimRows: []int{40}, DimFeats: []int{2},
		Task: workload.RegressionTask, Noise: 0.05, DimSignal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
	if err != nil {
		t.Fatal(err)
	}
	x, y := star.Materialize(), star.Y
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

	res, err := core.TrainNormalized(design, y, core.Task{L2: 0.5},
		core.Options{ForcePlan: "factorized+direct"})
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
	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
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
