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
// how large the file is.
func ReadCSV(bp *storage.BufferPool, r io.Reader, opts Options) (*Matrix, error) {
	opts = opts.withDefaults()
	var (
		b     *Builder
		cols  int
		buf   []float64 // block accumulation buffer, opts.BlockRows*cols
		nrows int       // rows currently in buf
	)
	flush := func() error {
		if nrows == 0 {
			return nil
		}
		d, err := la.NewDenseData(nrows, cols, buf[:nrows*cols])
		if err != nil {
			return err
		}
		nrows = 0
		return b.AppendBlock(d)
	}
	err := storage.ScanMatrixCSV(r, func(vals []float64) error {
		if b == nil {
			cols = len(vals)
			b = NewBuilder(bp, cols, opts)
			buf = make([]float64, opts.BlockRows*cols)
		}
		copy(buf[nrows*cols:], vals)
		nrows++
		if nrows == opts.BlockRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
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
