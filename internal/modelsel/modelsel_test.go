package modelsel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/workload"
)

func TestGrid(t *testing.T) {
	configs := Grid(map[string][]float64{
		"step": {0.1, 0.5},
		"l2":   {0, 0.01, 0.1},
	})
	if len(configs) != 6 {
		t.Fatalf("grid size = %d", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		key := fmt.Sprintf("%v/%v", c["step"], c["l2"])
		if seen[key] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[key] = true
	}
	if Grid(nil) != nil {
		t.Fatal("empty grid should be nil")
	}
}

// fakeTrainer scores each config by a known function of its parameters and
// converges toward that score as epochs accumulate; lets us verify search
// logic exactly.
type fakeTrainer struct{}

type fakeModel struct {
	target float64
	epochs int
}

func (fakeTrainer) New(cfg Config) (Model, error) {
	return &fakeModel{target: cfg["quality"]}, nil
}

func (m *fakeModel) Train(epochs int) error { m.epochs += epochs; return nil }

func (m *fakeModel) Score() (float64, error) {
	// Approaches target as epochs grow; poor configs stay poor.
	return m.target * (1 - math.Exp(-float64(m.epochs)/4)), nil
}

func (m *fakeModel) EpochsTrained() int { return m.epochs }

func makeFakeConfigs(n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = Config{"quality": float64(i+1) / float64(n)}
	}
	return out
}

func TestEvaluateAll(t *testing.T) {
	configs := makeFakeConfigs(8)
	res, stats, err := EvaluateAll(fakeTrainer{}, configs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalEpochs != 80 || stats.ModelsOpened != 8 {
		t.Fatalf("stats = %+v", stats)
	}
	if res[0].Config["quality"] != 1 {
		t.Fatalf("best config = %v", res[0].Config)
	}
	// Sorted descending.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
	if _, _, err := EvaluateAll(fakeTrainer{}, configs, 0); err == nil {
		t.Fatal("want epochs error")
	}
}

func TestSuccessiveHalvingFindsBestCheaper(t *testing.T) {
	configs := makeFakeConfigs(16)
	shRes, shStats, err := SuccessiveHalving(fakeTrainer{}, configs, 1, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, gridStats, err := EvaluateAll(fakeTrainer{}, configs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if shRes[0].Config["quality"] != 1 {
		t.Fatalf("SH best = %v", shRes[0].Config)
	}
	// The headline claim: SH finds the best with far fewer total epochs.
	if float64(shStats.TotalEpochs) > 0.5*float64(gridStats.TotalEpochs) {
		t.Fatalf("SH epochs %d not ≪ grid %d", shStats.TotalEpochs, gridStats.TotalEpochs)
	}
	// Every config must appear exactly once in the ranked output.
	if len(shRes) != 16 {
		t.Fatalf("SH results = %d", len(shRes))
	}
}

func TestSuccessiveHalvingValidation(t *testing.T) {
	if _, _, err := SuccessiveHalving(fakeTrainer{}, nil, 1, 8, 2); err == nil {
		t.Fatal("want no-configs error")
	}
	if _, _, err := SuccessiveHalving(fakeTrainer{}, makeFakeConfigs(2), 0, 8, 2); err == nil {
		t.Fatal("want budget error")
	}
	if _, _, err := SuccessiveHalving(fakeTrainer{}, makeFakeConfigs(2), 1, 8, 1); err == nil {
		t.Fatal("want eta error")
	}
}

func TestKFold(t *testing.T) {
	folds, err := KFold(10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for _, pair := range folds {
		if len(pair[0])+len(pair[1]) != 10 {
			t.Fatal("fold does not cover all rows")
		}
		for _, i := range pair[1] {
			seen[i]++
		}
		// Train and test are disjoint.
		inTest := map[int]bool{}
		for _, i := range pair[1] {
			inTest[i] = true
		}
		for _, i := range pair[0] {
			if inTest[i] {
				t.Fatal("row in both train and test")
			}
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Fatalf("row %d appears in %d test folds", i, seen[i])
		}
	}
	if _, err := KFold(5, 1, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := KFold(3, 5, 0); err == nil {
		t.Fatal("want k>n error")
	}
}

func TestSGDTrainerSearch(t *testing.T) {
	r := rand.New(rand.NewSource(150))
	x, y, _ := workload.Classification(r, 1200, 6, 0.05)
	xt := x.SelectRows(seqInts(0, 900))
	yt := y[:900]
	xv := x.SelectRows(seqInts(900, 1200))
	yv := y[900:]
	tr := &SGDTrainer{XTrain: xt, YTrain: yt, XVal: xv, YVal: yv, Seed: 3}
	configs := Grid(map[string][]float64{
		"step": {1e-4, 0.05, 0.5},
		"l2":   {0, 0.001},
	})
	res, _, err := SuccessiveHalving(tr, configs, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score < 0.85 {
		t.Fatalf("best validation accuracy = %v", res[0].Score)
	}
	// Ranked output: the winner dominates the last survivor.
	if res[0].Score < res[len(res)-1].Score {
		t.Fatal("results not ranked by score")
	}
	// Config validation.
	if _, err := tr.New(Config{"step": 0}); err == nil {
		t.Fatal("want step validation error")
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestRidgeCVSharedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	x, y, _ := workload.Regression(r, 500, 8, 0.3)
	lambdas := []float64{1e-4, 0.01, 0.1, 1, 10}
	shared, passesS, err := RidgeCVShared(x, y, lambdas, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	naive, passesN, err := RidgeCVNaive(x, y, lambdas, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Same fold split (same seed) → identical math → same results.
	for i := range shared {
		if shared[i].Lambda != naive[i].Lambda {
			t.Fatalf("lambda ranking differs: %v vs %v", shared[i], naive[i])
		}
		if math.Abs(shared[i].MeanMSE-naive[i].MeanMSE) > 1e-6*(1+shared[i].MeanMSE) {
			t.Fatalf("MSE differs for λ=%v: %v vs %v", shared[i].Lambda, shared[i].MeanMSE, naive[i].MeanMSE)
		}
	}
	// Reuse: k+1 passes vs k·|λ| passes.
	if passesS != 6 {
		t.Fatalf("shared passes = %d, want 6", passesS)
	}
	if passesN != 25 {
		t.Fatalf("naive passes = %d, want 25", passesN)
	}
}

func TestRidgeCVValidation(t *testing.T) {
	x := la.NewDense(10, 2)
	y := make([]float64, 10)
	if _, _, err := RidgeCVShared(x, y, nil, 2, 0); err == nil {
		t.Fatal("want no-lambdas error")
	}
	if _, _, err := RidgeCVShared(x, y[:3], []float64{1}, 2, 0); err == nil {
		t.Fatal("want label mismatch error")
	}
	if _, _, err := RidgeCVNaive(x, y, []float64{1}, 50, 0); err == nil {
		t.Fatal("want fold error")
	}
}

// Batched training must produce the same models as training each config
// separately through the incremental trainer (identical update sequences).
func TestTrainBatchedMatchesSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(152))
	x, y, _ := workload.Classification(r, 800, 5, 0.05)
	tr := &SGDTrainer{
		XTrain: x.SelectRows(seqInts(0, 600)), YTrain: y[:600],
		XVal: x.SelectRows(seqInts(600, 800)), YVal: y[600:],
		Seed: 7,
	}
	configs := []Config{
		{"step": 0.1, "l2": 0.0},
		{"step": 0.5, "l2": 0.01},
		{"step": 1.0, "l2": 0.0},
	}
	batched, err := TrainBatched(tr, configs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		m, err := tr.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Train(4); err != nil {
			t.Fatal(err)
		}
		sep, err := m.Score()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batched[i].Score-sep) > 1e-12 {
			t.Fatalf("config %d: batched score %v vs separate %v", i, batched[i].Score, sep)
		}
	}
}

func TestTrainBatchedValidation(t *testing.T) {
	tr := &SGDTrainer{}
	if _, err := TrainBatched(tr, nil, 4); err == nil {
		t.Fatal("want no-configs error")
	}
	if _, err := TrainBatched(tr, []Config{{"step": 1}}, 0); err == nil {
		t.Fatal("want epochs error")
	}
	if _, err := TrainBatched(tr, []Config{{"step": 1}}, 1); err == nil {
		t.Fatal("want missing-data error")
	}
	r := rand.New(rand.NewSource(153))
	x, y, _ := workload.Classification(r, 100, 3, 0)
	tr = &SGDTrainer{XTrain: x, YTrain: y, XVal: x, YVal: y}
	if _, err := TrainBatched(tr, []Config{{"step": 0}}, 1); err == nil {
		t.Fatal("want step error")
	}
}
