package compress

import (
	"math/rand"
	"testing"

	"dmml/internal/la"
)

// GramAccum materializes each column through colInto, which consults only
// the group covering it, and accumulates XᵀX without decompressing.
func TestCompressedColAndGram(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	m := mixedMatrix(r, 400)
	c := Compress(m, Options{CoCode: true})
	ej := make([]float64, c.cols)
	col := make([]float64, c.rows)
	for j := 0; j < c.cols; j++ {
		c.colInto(col, ej, j)
		want := m.Col(j)
		for i := range col {
			if col[i] != want[i] {
				t.Fatalf("column %d row %d = %v, want %v", j, i, col[i], want[i])
			}
		}
	}
	gram := la.NewDense(c.cols, c.cols)
	c.GramAccum(gram)
	if !gram.Equal(la.Gram(m), 1e-8) {
		t.Fatal("compressed Gram mismatch")
	}
}
