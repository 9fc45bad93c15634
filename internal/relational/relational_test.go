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
		storage.Field{Name: "name", Type: storage.String},
		storage.Field{Name: "tier", Type: storage.Int64},
	)
	tb := storage.NewTable(s)
	rows := [][]any{
		{int64(10), "alice", int64(1)},
		{int64(20), "bob", int64(2)},
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
	orders := ordersTable(t)
	custs := customersTable(t)
	j, err := HashJoin(orders, custs, "cust", "cid", JoinOptions{DropRightKey: true})
	if err != nil {
		t.Fatal(err)
	}
	// Orders 1,2,3,5 match; order 4 (cust 30) is dropped.
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", j.NumRows())
	}
	name, oid := j.Schema().FieldIndex("name"), j.Schema().FieldIndex("oid")
	byOid := map[int64]string{}
	for i := 0; i < j.NumRows(); i++ {
		byOid[j.Value(i, oid).(int64)] = j.Value(i, name).(string)
	}
	if byOid[1] != "alice" || byOid[2] != "bob" || byOid[3] != "alice" || byOid[5] != "bob" {
		t.Fatalf("joined names = %v", byOid)
	}
}

func TestHashJoinManyToMany(t *testing.T) {
	s := mustSchema(t, storage.Field{Name: "k", Type: storage.Int64}, storage.Field{Name: "v", Type: storage.Int64})
	a := storage.NewTable(s)
	b := storage.NewTable(s)
	_ = a.AppendRow(int64(1), int64(100))
	_ = a.AppendRow(int64(1), int64(101))
	_ = b.AppendRow(int64(1), int64(200))
	_ = b.AppendRow(int64(1), int64(201))
	j, err := HashJoin(a, b, "k", "k", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (cross product within key)", j.NumRows())
	}
	// Collision renaming: right "k" and "v" get suffixed.
	if j.Schema().FieldIndex("k_r") < 0 || j.Schema().FieldIndex("v_r") < 0 {
		t.Fatalf("schema = %+v", j.Schema().Fields)
	}
}

func TestHashJoinStringKeys(t *testing.T) {
	s := mustSchema(t, storage.Field{Name: "name", Type: storage.String}, storage.Field{Name: "x", Type: storage.Int64})
	a := storage.NewTable(s)
	_ = a.AppendRow("u", int64(1))
	_ = a.AppendRow("v", int64(2))
	b := storage.NewTable(s)
	_ = b.AppendRow("v", int64(3))
	j, err := HashJoin(a, b, "name", "name", JoinOptions{DropRightKey: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("rows = %d", j.NumRows())
	}
}

func TestHashJoinErrors(t *testing.T) {
	orders := ordersTable(t)
	custs := customersTable(t)
	if _, err := HashJoin(orders, custs, "nope", "cid", JoinOptions{}); err == nil {
		t.Fatal("want missing left key error")
	}
	if _, err := HashJoin(orders, custs, "cust", "nope", JoinOptions{}); err == nil {
		t.Fatal("want missing right key error")
	}
	if _, err := HashJoin(orders, custs, "cust", "name", JoinOptions{}); err == nil {
		t.Fatal("want key type mismatch error")
	}
	if _, err := HashJoin(orders, orders, "amount", "amount", JoinOptions{}); err == nil {
		t.Fatal("want float key rejection")
	}
}
