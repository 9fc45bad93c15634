package main

import (
	"fmt"
	"log"
)

// Profiling a column in one pass with bounded memory.
func ExampleProfile() {
	col := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		col = append(col, float64(i%10))
	}
	p, err := Profile(col)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", p.Count)
	fmt.Println("min..max:", p.Min, "..", p.Max)
	fmt.Println("distinct within 2x of 10:", p.ApproxDistinct > 5 && p.ApproxDistinct < 20)
	// Output:
	// count: 1000
	// min..max: 0 .. 9
	// distinct within 2x of 10: true
}
