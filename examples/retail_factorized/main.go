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
	"log"
	"math/rand"
	"time"

	"dmml/internal/core"
	"dmml/internal/factorized"
	"dmml/internal/hamlet"
	"dmml/internal/opt"
	"dmml/internal/relational"
	"dmml/internal/storage"
	"dmml/internal/workload"
)

func main() {
	r := rand.New(rand.NewSource(7))

	// 200k orders, 2k customers (TR=100), 500 products (TR=400).
	star, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows:  200000,
		FactFeats: 6, // order-level features: quantity, discount, ...
		DimRows:   []int{2000, 500},
		DimFeats:  []int{8, 12}, // customer profile, product attributes
		Task:      workload.RegressionTask,
		Noise:     0.1,
		DimSignal: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Path 1: relational join → matrix → train -------------------------
	fact, dims, err := star.Tables()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	joined := fact
	for k, dim := range dims {
		joined, err = relational.HashJoin(joined, dim, fmt.Sprintf("fk%d", k), "id",
			relational.JoinOptions{DropRightKey: true})
		if err != nil {
			log.Fatal(err)
		}
	}
	var cols []string
	for j := 0; j < 6; j++ {
		cols = append(cols, fmt.Sprintf("f%d", j))
	}
	for j := 0; j < 8; j++ {
		cols = append(cols, fmt.Sprintf("d0_%d", j))
	}
	for j := 0; j < 12; j++ {
		cols = append(cols, fmt.Sprintf("d1_%d", j))
	}
	xJoined, err := storage.ToMatrix(joined, cols)
	if err != nil {
		log.Fatal(err)
	}
	gd := opt.GDConfig{Step: 0.05, MaxIter: 15, Backtracking: true}
	if _, err := opt.GradientDescent(opt.DenseData{M: xJoined}, star.Y, opt.Squared{}, gd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relational join + materialized training: %v (%d joined rows)\n",
		time.Since(start).Round(time.Millisecond), joined.NumRows())

	// --- Path 2: factorized learning --------------------------------------
	design, err := factorized.NewStar(star.FactX, star.FKs, star.DimX)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if _, err := opt.GradientDescent(design, star.Y, opt.Squared{}, gd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factorized training (no join):            %v (predicted per-iter speedup %.1fx)\n",
		time.Since(start).Round(time.Millisecond), design.Speedup())

	// --- Path 3: let the planner decide ------------------------------------
	res, err := core.TrainNormalized(design, star.Y, core.Task{
		Loss: core.SquaredLoss, L2: 0.01, MaxIter: 15,
	}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner chose: %s (loss %.4f)\n", res.Plan, res.FinalLoss)
	fmt.Print(core.ExplainString(res.Explain))

	// --- Hamlet: could we skip a join altogether? ---------------------------
	fmt.Println("\nHamlet join-avoidance rule:")
	for k, name := range []string{"customers", "products"} {
		dec, err := hamlet.DefaultRule().Decide(
			star.Config.FactRows, star.Config.DimRows[k],
			star.Config.FactFeats, star.Config.DimFeats[k])
		if err != nil {
			log.Fatal(err)
		}
		verdict := "keep the join"
		if dec.Avoid {
			verdict = "safe to avoid the join"
		}
		fmt.Printf("  %-10s TR=%-6.0f FR=%-5.2f → %s (%s)\n",
			name, dec.TupleRatio, dec.FeatureRatio, verdict, dec.Reason)
	}
}
