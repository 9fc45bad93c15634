package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dmml/internal/la"
)

// ScanMatrixCSV is the one parser for headerless all-numeric CSV: it calls
// row with each record's values in file order (vals is reused between calls).
// Whitespace around a field is ignored, every record must be as wide as the
// first, empty input is an error, and errors number rows and columns from 1.
func ScanMatrixCSV(r io.Reader, row func(vals []float64) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // width is checked below so the error names the row
	var vals []float64
	for n := 1; ; n++ {
		rec, err := cr.Read()
		if err == io.EOF {
			if n == 1 {
				return fmt.Errorf("storage: csv input is empty")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("storage: csv read: %w", err)
		}
		if n == 1 {
			vals = make([]float64, len(rec))
		} else if len(rec) != len(vals) {
			return fmt.Errorf("storage: csv row %d has %d fields, want %d", n, len(rec), len(vals))
		}
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("storage: csv row %d col %d: %w", n, j+1, err)
			}
			vals[j] = v
		}
		if err := row(vals); err != nil {
			return err
		}
	}
}

// ReadMatrixCSVFile loads a headerless all-numeric CSV file as a dense matrix.
func ReadMatrixCSVFile(path string) (*la.Dense, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	var data []float64
	cols := 0
	err = ScanMatrixCSV(f, func(vals []float64) error {
		cols = len(vals)
		data = append(data, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return la.NewDenseData(len(data)/cols, cols, data)
}

// ToMatrix projects the named columns into a dense matrix, one row
// per table row, columns in the given order.
func ToMatrix(t *Table, cols []string) (*la.Dense, error) {
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("storage: ToMatrix on empty table")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: ToMatrix with no columns")
	}
	m := la.NewDense(t.NumRows(), len(cols))
	for j, name := range cols {
		i := t.schema.FieldIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("storage: no field %q", name)
		}
		if t.schema.Fields[i].Type == Int64 {
			for r, v := range t.ints[i] {
				m.Set(r, j, float64(v))
			}
			continue
		}
		for r, v := range t.floats[i] {
			m.Set(r, j, v)
		}
	}
	return m, nil
}
