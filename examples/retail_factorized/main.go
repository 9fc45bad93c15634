// Retail scenario: learning over a normalized star schema without
// materializing the join.
//
// An orders fact table references customer and product dimension tables by
// foreign key. We train a purchase-value regression three ways:
//
//  1. through the relational engine: hash-join everything, export a matrix,
//     train on it (the classic pipeline);
//  2. factorized (Orion/F): train directly on the normalized schema;
//  3. through the cost-based planner, which should pick factorized here
//     because the tuple ratios are high.
//
// We also ask Hamlet's rule whether either join could be skipped entirely.
//
//	go run ./examples/retail_factorized
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"dmml/internal/core"
	"dmml/internal/factorized"
	"dmml/internal/hamlet"
	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/relational"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

func main() {
	if err := run(os.Stdout, 200000); err != nil {
		log.Fatal(err)
	}
}

// gd is the training configuration both paths share.
var gd = opt.GDConfig{Step: 0.05, MaxIter: 15, Backtracking: true}

// newStar generates n orders over n/100 customers (tuple ratio 100) and
// n/400 products (tuple ratio 400).
func newStar(n int) (*workload.Star, error) {
	return workload.GenerateStar(rand.New(rand.NewSource(7)), workload.StarConfig{
		FactRows:  n,
		FactFeats: 6, // order-level features: quantity, discount, ...
		DimRows:   []int{n / 100, n / 400},
		DimFeats:  []int{8, 12}, // customer profile, product attributes
		Task:      workload.RegressionTask,
		Noise:     0.1,
		DimSignal: 1,
	})
}

// joinedMatrix is the classic pipeline's first half: hash-join the fact
// table with every dimension and export the feature columns as a matrix.
func joinedMatrix(star *workload.Star) (*la.Dense, error) {
	fact, dims, err := star.Tables()
	if err != nil {
		return nil, err
	}
	joined := fact
	for k, dim := range dims {
		joined, err = relational.HashJoin(joined, dim, fmt.Sprintf("fk%d", k), "id",
			relational.JoinOptions{DropRightKey: true})
		if err != nil {
			return nil, err
		}
	}
	var cols []string
	for j := 0; j < star.Config.FactFeats; j++ {
		cols = append(cols, fmt.Sprintf("f%d", j))
	}
	for k, d := range star.Config.DimFeats {
		for j := 0; j < d; j++ {
			cols = append(cols, fmt.Sprintf("d%d_%d", k, j))
		}
	}
	return storage.ToMatrix(joined, cols)
}

// run trains over n orders three ways and writes the report to w.
func run(w io.Writer, n int) error {
	star, err := newStar(n)
	if err != nil {
		return err
	}

	// --- Path 1: relational join → matrix → train -------------------------
	start := time.Now()
	xJoined, err := joinedMatrix(star)
	if err != nil {
		return err
	}
	if _, err := opt.GradientDescent(opt.DenseData{M: xJoined}, star.Y, opt.Squared{}, gd); err != nil {
		return err
	}
	fmt.Fprintf(w, "relational join + materialized training: %v (%d joined rows)\n",
		time.Since(start).Round(time.Millisecond), xJoined.Rows())

	// --- Path 2: factorized learning --------------------------------------
	design, err := factorized.NewStar(star.FactX, star.FKs, star.DimX)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := opt.GradientDescent(design, star.Y, opt.Squared{}, gd); err != nil {
		return err
	}
	fmt.Fprintf(w, "factorized training (no join):            %v (predicted per-iter speedup %.1fx)\n",
		time.Since(start).Round(time.Millisecond), design.Speedup())

	// --- Path 3: let the planner decide ------------------------------------
	res, err := core.TrainNormalized(design, star.Y, core.Task{
		Loss: core.SquaredLoss, L2: 0.01, MaxIter: 15,
	}, core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nplanner chose: %s (loss %.4f)\n", res.Plan, res.FinalLoss)
	fmt.Fprint(w, core.ExplainString(res.Explain))

	// --- Hamlet: could we skip a join altogether? ---------------------------
	fmt.Fprintln(w, "\nHamlet join-avoidance rule:")
	for k, name := range []string{"customers", "products"} {
		dec, err := hamlet.DefaultRule().Decide(
			star.Config.FactRows, star.Config.DimRows[k],
			star.Config.FactFeats, star.Config.DimFeats[k])
		if err != nil {
			return err
		}
		verdict := "keep the join"
		if dec.Avoid {
			verdict = "safe to avoid the join"
		}
		fmt.Fprintf(w, "  %-10s TR=%-6.0f FR=%-5.2f → %s (%s)\n",
			name, dec.TupleRatio, dec.FeatureRatio, verdict, dec.Reason)
	}
	return nil
}
