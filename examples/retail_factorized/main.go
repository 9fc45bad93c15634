// Retail scenario: learning over a normalized star schema without
// materializing the join.
//
// An orders fact table references customer and product dimension tables by
// foreign key. We train a purchase-value regression three ways:
//
//  1. through the relational engine: hash-join everything, export a matrix,
//     train on it (the classic pipeline);
//  2. factorized (Orion/F): train directly on the normalized schema;
//  3. through the cost-based planner, which prints its plan table (every
//     plan it costed, cheapest first) and should pick factorized here
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
	"strings"
	"time"

	"dmml/internal/core"
	"dmml/internal/factorized"
	"dmml/internal/hamlet"
	"dmml/internal/opt"
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
func newStar(n int) (*workload.Snowflake, error) {
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

// run trains over n orders three ways and writes the report to w.
func run(w io.Writer, n int) error {
	star, err := newStar(n)
	if err != nil {
		return err
	}

	// --- Path 1: relational join → matrix → train -------------------------
	start := time.Now()
	tables, err := star.Tables()
	if err != nil {
		return err
	}
	xJoined, err := star.JoinedMatrix(tables)
	if err != nil {
		return err
	}
	if _, err := opt.GradientDescent(opt.DenseData{M: xJoined}, star.Y, opt.Squared{}, gd); err != nil {
		return err
	}
	fmt.Fprintf(w, "relational join + materialized training: %v (%d joined rows)\n",
		time.Since(start).Round(time.Millisecond), xJoined.Rows())

	// --- Path 2: factorized learning --------------------------------------
	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
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
		Loss: opt.Squared{}, L2: 0.01, MaxIter: 15,
	}, core.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nplanner chose: %s (loss %.4f)\n", res.Plan, res.FinalLoss)
	fmt.Fprintln(w, "plan table (cheapest first, * = chosen):")
	fmt.Fprint(w, explainString(res.Explain))

	// --- Hamlet: could we skip a join altogether? ---------------------------
	fmt.Fprintln(w, "\nHamlet join-avoidance rule:")
	for k, name := range []string{"customers", "products"} {
		dec, err := hamlet.DefaultRule().Decide(
			star.Rows[0], star.Rows[1+k], star.X[0].Cols(), star.X[1+k].Cols())
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

// explainString renders the planner's plan table, one plan a line, with the
// chosen plan starred.
func explainString(plans []core.PlanCost) string {
	var b strings.Builder
	for _, p := range plans {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s %-24s est=%.3g flops ws=%d bytes\n", mark, p.Name, p.EstFlops, p.WorkingSetBytes)
	}
	return b.String()
}
