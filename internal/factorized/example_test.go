package factorized_test

import (
	"fmt"
	"log"

	"dmml/internal/factorized"
	"dmml/internal/la"
)

// A two-row dimension table joined into a four-row fact table: the
// factorized design computes X·w without ever building the joined matrix.
func ExampleNewStar() {
	fact, err := la.FromRows([][]float64{{1}, {2}, {3}, {4}})
	if err != nil {
		log.Fatal(err)
	}
	dim, err := la.FromRows([][]float64{{10, 0}, {0, 10}})
	if err != nil {
		log.Fatal(err)
	}
	fks := [][]int{{0, 1, 0, 1}} // fact rows 0,2 join dim row 0; rows 1,3 join dim row 1
	design, err := factorized.NewStar(fact, fks, []*la.Dense{dim})
	if err != nil {
		log.Fatal(err)
	}
	// Joined schema is [fact | dim]: width 3.
	w := []float64{1, 0.1, 0.2}
	fmt.Println(design.MatVec(w))
	// Output:
	// [2 4 4 6]
}
