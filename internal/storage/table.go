// Package storage provides dmml's relational storage substrate: tables of
// whole typed columns, the headerless numeric-CSV matrix reader, model
// checkpoints, and the page-based buffer pool the out-of-core matrices page
// through.
package storage

import (
	"fmt"
	"slices"
)

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Float64 ColType = iota
	Int64
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// Field is one named, typed column of a table.
type Field struct {
	Name string
	Type ColType
}

// Column is one field's values: Ints for an Int64 field, Floats for a
// Float64 field, the other nil.
type Column struct {
	Ints   []int64
	Floats []float64
}

// Table is an immutable columnar table: one whole typed column per field.
// It owns the fields and columns NewTable is given, and Fields and Columns
// hand out those same slices; nobody writes them after NewTable.
type Table struct {
	fields []Field
	cols   []Column
	nrows  int
}

// NewTable builds a table from its fields and one column per field, in
// field order, without copying them. At least one field, unique non-empty
// field names, a column per field of the field's type and columns of equal
// length are checked; any violation is an error.
func NewTable(fields []Field, cols ...Column) (*Table, error) {
	if len(fields) == 0 || len(cols) != len(fields) {
		return nil, fmt.Errorf("storage: NewTable got %d columns for %d fields, want one per field and at least one", len(cols), len(fields))
	}
	t := &Table{fields: fields, cols: cols}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("storage: field %d has empty name", i)
		}
		if t.FieldIndex(f.Name) < i {
			return nil, fmt.Errorf("storage: duplicate field name %q", f.Name)
		}
		n, wrong := len(cols[i].Floats), cols[i].Ints != nil
		if f.Type == Int64 {
			n, wrong = len(cols[i].Ints), cols[i].Floats != nil
		}
		if wrong {
			return nil, fmt.Errorf("storage: field %q wants %s values", f.Name, f.Type)
		}
		if i == 0 {
			t.nrows = n
		} else if n != t.nrows {
			return nil, fmt.Errorf("storage: field %q has %d rows, want %d", f.Name, n, t.nrows)
		}
	}
	return t, nil
}

// Fields returns the table's fields, read-only.
func (t *Table) Fields() []Field { return t.fields }

// FieldIndex returns the position of the named field, or -1.
func (t *Table) FieldIndex(name string) int {
	return slices.IndexFunc(t.fields, func(f Field) bool { return f.Name == name })
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// Columns returns one column per field, in field order, read-only.
func (t *Table) Columns() []Column { return t.cols }
