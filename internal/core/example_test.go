package core_test

import (
	"fmt"
	"log"
	"math/rand"

	"dmml/internal/core"
	"dmml/internal/factorized"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// Training over a normalized star schema: the planner compares factorized
// learning against materialize-then-train and executes the cheaper plan.
func ExampleTrainNormalized() {
	r := rand.New(rand.NewSource(1))
	star, err := workload.GenerateStar(r, workload.StarConfig{
		FactRows: 20000, FactFeats: 4,
		DimRows: []int{100}, DimFeats: []int{8}, // tuple ratio 200
		Task: workload.RegressionTask, Noise: 0.05, DimSignal: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	design, err := factorized.NewStar(star.X[0], star.FKs[1:], star.X[1:])
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.TrainNormalized(design, star.Y,
		core.Task{Loss: opt.Squared{}, L2: 0.01}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:", res.Plan)
	fmt.Println("low loss:", res.FinalLoss < 0.01)
	// Output:
	// plan: factorized+direct
	// low loss: true
}
