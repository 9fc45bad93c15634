package relational

import (
	"testing"

	"dmml/internal/storage"
)

func mustSchema(t *testing.T, fields ...storage.Field) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ordersTable(t *testing.T) *storage.Table {
	t.Helper()
	s := mustSchema(t,
		storage.Field{Name: "oid", Type: storage.Int64},
		storage.Field{Name: "cust", Type: storage.Int64},
		storage.Field{Name: "amount", Type: storage.Float64},
	)
	tb := storage.NewTable(s)
	rows := [][]any{
		{int64(1), int64(10), 5.0},
		{int64(2), int64(20), 7.5},
		{int64(3), int64(10), 2.5},
		{int64(4), int64(30), 9.0},
		{int64(5), int64(20), 1.0},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func customersTable(t *testing.T) *storage.Table {
	t.Helper()
	s := mustSchema(t,
		storage.Field{Name: "cid", Type: storage.Int64},
		storage.Field{Name: "tier", Type: storage.Int64},
		storage.Field{Name: "credit", Type: storage.Float64},
	)
	tb := storage.NewTable(s)
	rows := [][]any{
		{int64(10), int64(1), 0.25},
		{int64(20), int64(2), 0.75},
		// customer 30 intentionally missing: inner join drops order 4
	}
	for _, r := range rows {
		if err := tb.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestHashJoinPKFK(t *testing.T) {
	j, err := HashJoin(ordersTable(t), customersTable(t), "cust", "cid")
	if err != nil {
		t.Fatal(err)
	}
	// Orders 1,2,3,5 match, in left order; order 4 (cust 30) is dropped.
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", j.NumRows())
	}
	if j.Schema().FieldIndex("cid") >= 0 {
		t.Fatal("the right key must be dropped")
	}
	oid, tier := j.Schema().FieldIndex("oid"), j.Schema().FieldIndex("tier")
	wantOid, wantTier := []int64{1, 2, 3, 5}, []int64{1, 2, 1, 2}
	for i := range wantOid {
		if j.Value(i, oid).(int64) != wantOid[i] || j.Value(i, tier).(int64) != wantTier[i] {
			t.Fatalf("row %d = order %v tier %v, want %d %d", i, j.Value(i, oid), j.Value(i, tier), wantOid[i], wantTier[i])
		}
	}
}

func TestHashJoinManyToMany(t *testing.T) {
	a := storage.NewTable(mustSchema(t, storage.Field{Name: "k", Type: storage.Int64}, storage.Field{Name: "u", Type: storage.Int64}))
	b := storage.NewTable(mustSchema(t, storage.Field{Name: "k", Type: storage.Int64}, storage.Field{Name: "v", Type: storage.Int64}))
	_ = a.AppendRow(int64(1), int64(100))
	_ = a.AppendRow(int64(1), int64(101))
	_ = b.AppendRow(int64(1), int64(200))
	_ = b.AppendRow(int64(1), int64(201))
	j, err := HashJoin(a, b, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (cross product within key)", j.NumRows())
	}
	// A right column named like a left one is the schema's duplicate error.
	if _, err := HashJoin(a, a, "k", "u"); err == nil {
		t.Fatal("want duplicate column error")
	}
}

func TestHashJoinErrors(t *testing.T) {
	orders := ordersTable(t)
	custs := customersTable(t)
	if _, err := HashJoin(orders, custs, "nope", "cid"); err == nil {
		t.Fatal("want missing left key error")
	}
	if _, err := HashJoin(orders, custs, "cust", "nope"); err == nil {
		t.Fatal("want missing right key error")
	}
	if _, err := HashJoin(orders, custs, "cust", "credit"); err == nil {
		t.Fatal("want key type mismatch error")
	}
	if _, err := HashJoin(orders, orders, "amount", "amount"); err == nil {
		t.Fatal("want float key rejection")
	}
}
