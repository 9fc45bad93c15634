// Package storage provides dmml's relational storage substrate: typed
// columnar tables, the headerless numeric-CSV matrix reader, model
// checkpoints, and the page-based buffer pool the out-of-core matrices page
// through.
package storage

import (
	"fmt"
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

// Field is one named, typed column in a schema.
type Field struct {
	Name string
	Type ColType
}

// Schema describes a table's columns.
type Schema struct {
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema and validates that field names are unique and
// non-empty.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("storage: schema needs at least one field")
	}
	s := &Schema{Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("storage: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate field name %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.Fields) }

// Table is an immutable-schema columnar table. Columns are dense slices; the
// table grows by appending rows through a typed interface.
type Table struct {
	schema *Schema
	floats [][]float64 // indexed by field position; nil for non-float fields
	ints   [][]int64
	nrows  int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema: schema,
		floats: make([][]float64, len(schema.Fields)),
		ints:   make([][]int64, len(schema.Fields)),
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// AppendRow appends one row. vals must match the schema's arity and types:
// float64 for Float64 fields, int64/int for Int64.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema.Fields) {
		return fmt.Errorf("storage: AppendRow got %d values, want %d", len(vals), len(t.schema.Fields))
	}
	for i, f := range t.schema.Fields {
		switch f.Type {
		case Float64:
			v, ok := vals[i].(float64)
			if !ok {
				return fmt.Errorf("storage: field %q wants float64, got %T", f.Name, vals[i])
			}
			t.floats[i] = append(t.floats[i], v)
		case Int64:
			switch v := vals[i].(type) {
			case int64:
				t.ints[i] = append(t.ints[i], v)
			case int:
				t.ints[i] = append(t.ints[i], int64(v))
			default:
				return fmt.Errorf("storage: field %q wants int64, got %T", f.Name, vals[i])
			}
		}
	}
	t.nrows++
	return nil
}

// Value returns the value at (row, field index) as an any.
func (t *Table) Value(row, field int) any {
	if t.schema.Fields[field].Type == Int64 {
		return t.ints[field][row]
	}
	return t.floats[field][row]
}
