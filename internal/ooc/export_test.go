package ooc

import (
	"dmml/internal/la"
	"dmml/internal/opt"
)

// ToDense materializes the full matrix: the round-trip reference the tests
// compare the paged blocks against.
func (m *Matrix) ToDense() (*la.Dense, error) {
	out := la.NewDense(m.rows, m.cols)
	err := m.ForEachBlock(func(rb opt.RowBlock) error {
		copy(out.RawData()[rb.StartRow()*m.cols:], rb.(*block).Decompress().RawData())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
