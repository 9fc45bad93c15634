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

// ReadCSV parses CSV from r into a table with the given schema. The first
// record is treated as a header when header is true and must match the schema
// field names positionally.
func ReadCSV(r io.Reader, schema *Schema, header bool) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(schema.Fields)
	t := NewTable(schema)
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: csv read: %w", err)
		}
		if first && header {
			first = false
			for i, f := range schema.Fields {
				if rec[i] != f.Name {
					return nil, fmt.Errorf("storage: csv header %q at position %d, schema wants %q", rec[i], i, f.Name)
				}
			}
			continue
		}
		first = false
		vals := make([]any, len(rec))
		for i, f := range schema.Fields {
			switch f.Type {
			case Float64:
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return nil, fmt.Errorf("storage: csv field %q row %d: %w", f.Name, t.nrows, err)
				}
				vals[i] = v
			case Int64:
				v, err := strconv.ParseInt(rec[i], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("storage: csv field %q row %d: %w", f.Name, t.nrows, err)
				}
				vals[i] = v
			case String:
				vals[i] = rec[i]
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadCSVFile reads a CSV file into a table.
func ReadCSVFile(path string, schema *Schema, header bool) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	return ReadCSV(f, schema, header)
}

// WriteCSV writes the table as CSV with a header row.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	head := make([]string, t.schema.NumFields())
	for i, f := range t.schema.Fields {
		head[i] = f.Name
	}
	if err := cw.Write(head); err != nil {
		return fmt.Errorf("storage: csv write: %w", err)
	}
	rec := make([]string, t.schema.NumFields())
	for r := 0; r < t.nrows; r++ {
		for i := range rec {
			rec[i] = t.ValueString(r, i)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: csv write: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to a CSV file.
func WriteCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := WriteCSV(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ToMatrix projects the named numeric columns into a dense matrix, one row
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
		switch t.schema.Fields[i].Type {
		case Float64:
			for r, v := range t.floats[i] {
				m.Set(r, j, v)
			}
		case Int64:
			for r, v := range t.ints[i] {
				m.Set(r, j, float64(v))
			}
		default:
			return nil, fmt.Errorf("storage: field %q is not numeric", name)
		}
	}
	return m, nil
}
