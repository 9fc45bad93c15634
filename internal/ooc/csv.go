package ooc

import (
	"fmt"
	"io"
	"os"

	"dmml/internal/la"
	"dmml/internal/storage"
)

// ReadCSV streams numeric CSV from r into a block-paged matrix: rows
// accumulate into one dense block buffer at a time, each full block is
// compressed and paged out through the builder, and the buffer is reused —
// peak memory is one block plus whatever the pool keeps resident, no matter
// how large the file is. On an error — a malformed row included — no page
// stays in the pool.
func ReadCSV(bp *storage.BufferPool, r io.Reader, opts Options) (*Matrix, error) {
	var (
		b    *Builder
		cols int
		buf  []float64 // the block being accumulated, row-major
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		d, err := la.NewDenseData(len(buf)/cols, cols, buf)
		if err != nil {
			return err
		}
		buf = buf[:0]
		return b.AppendBlock(d)
	}
	err := storage.ScanMatrixCSV(r, func(vals []float64) error {
		if b == nil {
			cols = len(vals)
			b = NewBuilder(bp, cols, opts)
		}
		buf = append(buf, vals...)
		if len(buf) == b.opts.BlockRows*cols {
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
