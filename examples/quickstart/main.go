// Quickstart: train a classifier through dmml's cost-based planner.
//
// The planner looks at the data (size, compressibility), the task (loss,
// iterations) and the memory budget, enumerates physical plans, and executes
// the cheapest — printing an EXPLAIN-style plan table along the way.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"dmml/internal/core"
	"dmml/internal/la"
	"dmml/internal/ml"
	"dmml/internal/workload"
)

func main() {
	if err := run(os.Stdout, 50000); err != nil {
		log.Fatal(err)
	}
}

// run trains over n generated rows and writes the plan table, the chosen
// plan, the final loss and the training accuracy to w.
func run(w io.Writer, n int) error {
	r := rand.New(rand.NewSource(42))

	// A mildly noisy binary classification problem.
	x, y, _ := workload.Classification(r, n, 20, 0.03)

	res, err := core.TrainJoined(x, y, core.Task{
		Loss:    core.LogisticLoss,
		L2:      1e-4,
		MaxIter: 50,
	}, core.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "plan table (cheapest first, * = chosen):")
	fmt.Fprint(w, core.ExplainString(res.Explain))
	fmt.Fprintf(w, "\nchosen plan: %s\n", res.Plan)
	fmt.Fprintf(w, "final training loss: %.4f\n", res.FinalLoss)

	// Evaluate the model.
	pred := make([]float64, len(y))
	for i := range pred {
		if la.Dot(res.W, x.RowView(i)) >= 0 {
			pred[i] = 1
		} else {
			pred[i] = -1
		}
	}
	fmt.Fprintf(w, "training accuracy: %.4f\n", ml.Accuracy(pred, y))
	return nil
}
