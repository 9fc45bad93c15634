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
		b := rb.(*block)
		rows := b.dn
		if b.cm != nil {
			rows = b.cm.Decompress()
		}
		copy(out.RawData()[b.meta.startRow*m.cols:], rows.RawData())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
