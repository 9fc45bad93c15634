package ooc

import (
	"fmt"
	"io"
	"os"

	"dmml/internal/la"
	"dmml/internal/storage"
)

// ReadCSV streams numeric CSV from r into a block-paged matrix: rows
// accumulate into a dense block buffer, each full block goes to the builder,
// and the next block accumulates into a second buffer while the builder
// compresses and pages out the first — the two alternate, so peak memory is
// two blocks plus whatever the pool keeps resident, no matter how large the
// file is. On an error — a malformed row included — no page stays in the
// pool.
func ReadCSV(bp *storage.BufferPool, r io.Reader, opts Options) (*Matrix, error) {
	var (
		b    *Builder
		cols int
		bufs [2][]float64 // the block being accumulated is bufs[0], row-major
	)
	flush := func() error {
		if len(bufs[0]) == 0 {
			return nil
		}
		d, err := la.NewDenseData(len(bufs[0])/cols, cols, bufs[0])
		if err != nil {
			return err
		}
		// The builder reads bufs[0] until the next AppendBlock or Finish
		// returns; by then the other buffer is full and handed over.
		bufs[0], bufs[1] = bufs[1][:0], bufs[0]
		return b.AppendBlock(d)
	}
	err := storage.ScanMatrixCSV(r, func(vals []float64) error {
		if b == nil {
			cols = len(vals)
			b = NewBuilder(bp, cols, opts)
		}
		bufs[0] = append(bufs[0], vals...)
		if len(bufs[0]) == b.opts.BlockRows*cols {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		if b != nil && !b.done {
			err = b.abort(err)
		}
		return nil, err
	}
	return b.Finish()
}

// ReadCSVFile streams a CSV file into a block-paged matrix.
func ReadCSVFile(bp *storage.BufferPool, path string, opts Options) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	defer f.Close()
	return ReadCSV(bp, f, opts)
}
