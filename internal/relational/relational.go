// Package relational implements the hash equi-join over storage.Table that
// workload.(*Snowflake).JoinedMatrix materializes a join with: the
// independent reference E1 checks the "materialized learning" baseline's
// matrix against.
package relational

import (
	"fmt"

	"dmml/internal/storage"
)

// HashJoin computes the equi-join of left and right on leftKey = rightKey,
// two Int64 columns. The output has every left column, then every right
// column but the key (it repeats the left key on every row); a right column
// whose name a left column already has is an error. The right side is the
// hash build side, so pass the smaller (dimension) table as right for PK–FK
// joins. Left rows come out in their order.
func HashJoin(left, right *storage.Table, leftKey, rightKey string) (*storage.Table, error) {
	li := left.Schema().FieldIndex(leftKey)
	ri := right.Schema().FieldIndex(rightKey)
	if li < 0 {
		return nil, fmt.Errorf("relational: left has no column %q", leftKey)
	}
	if ri < 0 {
		return nil, fmt.Errorf("relational: right has no column %q", rightKey)
	}
	if lt, rt := left.Schema().Fields[li].Type, right.Schema().Fields[ri].Type; lt != storage.Int64 || rt != storage.Int64 {
		return nil, fmt.Errorf("relational: join keys must be int64, got %s and %s", lt, rt)
	}

	fields := append([]storage.Field(nil), left.Schema().Fields...)
	rightOut := make([]int, 0, right.Schema().NumFields()-1)
	for j, f := range right.Schema().Fields {
		if j != ri {
			fields = append(fields, f)
			rightOut = append(rightOut, j)
		}
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("relational: %w", err)
	}
	out := storage.NewTable(schema)

	// Build side: right.
	build := make(map[int64][]int, right.NumRows())
	for r := 0; r < right.NumRows(); r++ {
		k := right.Value(r, ri).(int64)
		build[k] = append(build[k], r)
	}
	// Probe side: left.
	nLeft := left.Schema().NumFields()
	vals := make([]any, len(fields))
	for r := 0; r < left.NumRows(); r++ {
		matches, ok := build[left.Value(r, li).(int64)]
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
