// Model search scenario: hyperparameter tuning with bandit pruning and a
// ModelDB-style registry.
//
// We sweep a 32-point grid of (step, l2) configs for a logistic-regression
// SGD model, comparing exhaustive grid search against TuPAQ-style successive
// halving, and record every run — dataset hash, config, metrics, lineage —
// in a model registry that we then query, save as JSON and load back.
//
//	go run ./examples/model_search
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"dmml/internal/modeldb"
	"dmml/internal/modelsel"
	"dmml/internal/workload"
)

// space is the searched hyperparameter grid: 32 (step, l2) points.
var space = map[string][]float64{
	"step": {0.001, 0.01, 0.05, 0.1, 0.5, 1, 2, 5},
	"l2":   {0, 1e-4, 1e-2, 1e-1},
}

func main() {
	if err := run(os.Stdout, 40000); err != nil {
		log.Fatal(err)
	}
}

// run searches space over n generated rows, grid against successive
// halving, logs every halving run into a registry, and writes the search
// results, the registry queries and a save/load round trip to w.
func run(w io.Writer, n int) error {
	r := rand.New(rand.NewSource(99))
	x, y, _ := workload.Classification(r, n, 24, 0.05)
	split := n * 3 / 4
	trainIdx, valIdx := seq(0, split), seq(split, n)
	trainer := &modelsel.SGDTrainer{
		XTrain: x.SelectRows(trainIdx), YTrain: pick(y, trainIdx),
		XVal: x.SelectRows(valIdx), YVal: pick(y, valIdx),
		Seed: 5,
	}
	configs := modelsel.Grid(space)
	store := modeldb.NewStore()
	dataHash := modeldb.DatasetHash(x, y)

	// Exhaustive grid.
	start := time.Now()
	gridRes, gridStats, err := modelsel.EvaluateAll(trainer, configs, 16)
	if err != nil {
		return err
	}
	gridTime := time.Since(start)

	// Successive halving.
	start = time.Now()
	shRes, shStats, err := modelsel.SuccessiveHalving(trainer, configs, 1, 16, 2)
	if err != nil {
		return err
	}
	shTime := time.Since(start)

	fmt.Fprintf(w, "grid:               best acc %.4f using %4d epochs in %v\n",
		gridRes[0].Score, gridStats.TotalEpochs, gridTime.Round(time.Millisecond))
	fmt.Fprintf(w, "successive halving: best acc %.4f using %4d epochs in %v (%.1fx fewer epochs)\n",
		shRes[0].Score, shStats.TotalEpochs, shTime.Round(time.Millisecond),
		float64(gridStats.TotalEpochs)/float64(shStats.TotalEpochs))
	fmt.Fprintf(w, "successive halving picks step=%g l2=%g\n",
		shRes[0].Config["step"], shRes[0].Config["l2"])

	// Log every evaluated config into the registry with lineage.
	parent := -1
	for i := len(shRes) - 1; i >= 0; i-- {
		res := shRes[i]
		run, err := store.Log(modeldb.Spec{
			Name:        "churn-logistic",
			DatasetHash: dataHash,
			Transforms:  []string{"none"},
			Config:      res.Config,
			Metrics:     map[string]float64{"val_acc": res.Score, "epochs": float64(res.Epochs)},
			ParentID:    parent,
			Tags:        []string{"successive-halving"},
		})
		if err != nil {
			return err
		}
		parent = run.ID
	}

	best, err := store.Best("churn-logistic", "val_acc", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nregistry: %d runs logged; best val_acc %.4f with config %v\n",
		store.NumRuns(), best.Metrics["val_acc"], best.Config)
	chain, err := store.Lineage(best.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lineage depth of best run: %d\n", len(chain))

	survivors := store.Query(func(run modeldb.Run) bool {
		return run.Metrics["epochs"] >= 16
	})
	fmt.Fprintf(w, "configs that survived to the full budget: %d\n", len(survivors))

	// Persist the registry as JSON and load it back.
	var saved bytes.Buffer
	if err := store.Save(&saved); err != nil {
		return err
	}
	size := saved.Len()
	loaded, err := modeldb.Load(&saved)
	if err != nil {
		return err
	}
	reBest, err := loaded.Best("churn-logistic", "val_acc", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "registry reloaded from %d bytes of JSON: %d runs; best val_acc %.4f with config %v\n",
		size, loaded.NumRuns(), reBest.Metrics["val_acc"], reBest.Config)
	return nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
