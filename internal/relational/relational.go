// Package relational implements the hash equi-join over storage.Table that
// workload.(*Snowflake).JoinedMatrix materializes a join with: the
// independent reference E1 checks the "materialized learning" baseline's
// matrix against. The join turns the two key columns into a pair of gather
// indexes, then gathers every output column whole from its source.
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
// joins. Left rows come out in their order, each one's matches in right-row
// order.
func HashJoin(left, right *storage.Table, leftKey, rightKey string) (*storage.Table, error) {
	li, ri := left.FieldIndex(leftKey), right.FieldIndex(rightKey)
	if li < 0 {
		return nil, fmt.Errorf("relational: left has no column %q", leftKey)
	}
	if ri < 0 {
		return nil, fmt.Errorf("relational: right has no column %q", rightKey)
	}
	if lt, rt := left.Fields()[li].Type, right.Fields()[ri].Type; lt != storage.Int64 || rt != storage.Int64 {
		return nil, fmt.Errorf("relational: join keys must be int64, got %s and %s", lt, rt)
	}

	// Build side: right, as a chain per key over row numbers plus one
	// (0 ends a chain), threaded back to front so a chain runs in row order.
	rk := right.Columns()[ri].Ints
	head := make(map[int64]int, len(rk))
	next := make([]int, len(rk))
	for r := len(rk) - 1; r >= 0; r-- {
		next[r] = head[rk[r]]
		head[rk[r]] = r + 1
	}
	// Probe side: left, into one (left row, right row) pair per output row.
	lrows, rrows := make([]int, 0, left.NumRows()), make([]int, 0, left.NumRows())
	for l, k := range left.Columns()[li].Ints {
		for m := head[k]; m > 0; m = next[m-1] {
			lrows = append(lrows, l)
			rrows = append(rrows, m-1)
		}
	}

	// Gather each output column whole.
	fields := append([]storage.Field(nil), left.Fields()...)
	var cols []storage.Column
	for _, c := range left.Columns() {
		cols = append(cols, storage.Column{Ints: gather(c.Ints, lrows), Floats: gather(c.Floats, lrows)})
	}
	for j, f := range right.Fields() {
		if c := right.Columns()[j]; j != ri {
			fields = append(fields, f)
			cols = append(cols, storage.Column{Ints: gather(c.Ints, rrows), Floats: gather(c.Floats, rrows)})
		}
	}
	return storage.NewTable(fields, cols...)
}

// gather returns src's values at rows, in rows' order; nil stays nil.
func gather[T int64 | float64](src []T, rows []int) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}
