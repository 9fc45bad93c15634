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
		var rows *la.Dense
		switch b := rb.(type) {
		case *rawBlock:
			rows = b.dn
		case *compressedBlock:
			rows = b.cm.Decompress()
		}
		copy(out.RawData()[rb.StartRow()*m.cols:], rows.RawData())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
