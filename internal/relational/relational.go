// Package relational implements the hash equi-join over storage.Table that
// workload.(*Star).JoinedMatrix materializes a join with: the independent
// reference E1 checks the "materialized learning" baseline's matrix
// against.
package relational

import (
	"fmt"

	"dmml/internal/storage"
)

// JoinOptions tunes HashJoin output naming.
type JoinOptions struct {
	// RightSuffix disambiguates right-side column names that collide with
	// left-side names. Default "_r".
	RightSuffix string
	// DropRightKey omits the right join key from the output (it duplicates
	// the left key value on every row).
	DropRightKey bool
}

// HashJoin computes the equi-join of left and right on leftKey = rightKey.
// Keys must both be Int64 or both String. The right side is used as the hash
// build side, so pass the smaller (dimension) table as right for PK–FK joins.
func HashJoin(left, right *storage.Table, leftKey, rightKey string, opts JoinOptions) (*storage.Table, error) {
	if opts.RightSuffix == "" {
		opts.RightSuffix = "_r"
	}
	li := left.Schema().FieldIndex(leftKey)
	ri := right.Schema().FieldIndex(rightKey)
	if li < 0 {
		return nil, fmt.Errorf("relational: left has no column %q", leftKey)
	}
	if ri < 0 {
		return nil, fmt.Errorf("relational: right has no column %q", rightKey)
	}
	lt := left.Schema().Fields[li].Type
	rt := right.Schema().Fields[ri].Type
	if lt != rt {
		return nil, fmt.Errorf("relational: join key types differ: %s vs %s", lt, rt)
	}
	if lt == storage.Float64 {
		return nil, fmt.Errorf("relational: float64 join keys are not supported")
	}

	// Output schema: all left fields, then right fields (optionally minus the
	// key), renaming collisions.
	var fields []storage.Field
	fields = append(fields, left.Schema().Fields...)
	taken := make(map[string]bool, len(fields))
	for _, f := range fields {
		taken[f.Name] = true
	}
	rightOut := make([]int, 0, right.Schema().NumFields())
	for j, f := range right.Schema().Fields {
		if opts.DropRightKey && j == ri {
			continue
		}
		name := f.Name
		for taken[name] {
			name += opts.RightSuffix
		}
		taken[name] = true
		fields = append(fields, storage.Field{Name: name, Type: f.Type})
		rightOut = append(rightOut, j)
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("relational: %w", err)
	}
	out := storage.NewTable(schema)

	// Build side: right.
	build := make(map[any][]int, right.NumRows())
	for r := 0; r < right.NumRows(); r++ {
		k := right.Value(r, ri)
		build[k] = append(build[k], r)
	}
	// Probe side: left.
	nLeft := left.Schema().NumFields()
	vals := make([]any, nLeft+len(rightOut))
	for r := 0; r < left.NumRows(); r++ {
		matches, ok := build[left.Value(r, li)]
		if !ok {
			continue
		}
		for i := 0; i < nLeft; i++ {
			vals[i] = left.Value(r, i)
		}
		for _, m := range matches {
			for k, j := range rightOut {
				vals[nLeft+k] = right.Value(m, j)
			}
			if err := out.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
