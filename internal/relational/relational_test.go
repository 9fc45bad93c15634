package relational

import (
	"slices"
	"testing"

	"dmml/internal/storage"
)

func mustTable(t testing.TB, fields []storage.Field, cols ...storage.Column) *storage.Table {
	t.Helper()
	tb, err := storage.NewTable(fields, cols...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func ordersTable(t *testing.T) *storage.Table {
	return mustTable(t, []storage.Field{
		{Name: "oid", Type: storage.Int64},
		{Name: "cust", Type: storage.Int64},
		{Name: "amount", Type: storage.Float64},
	},
		storage.Column{Ints: []int64{1, 2, 3, 4, 5}},
		storage.Column{Ints: []int64{10, 20, 10, 30, 20}},
		storage.Column{Floats: []float64{5, 7.5, 2.5, 9, 1}},
	)
}

// Customer 30 is missing: the inner join drops order 4.
func customersTable(t *testing.T) *storage.Table {
	return mustTable(t, []storage.Field{
		{Name: "cid", Type: storage.Int64},
		{Name: "tier", Type: storage.Int64},
		{Name: "credit", Type: storage.Float64},
	},
		storage.Column{Ints: []int64{10, 20}},
		storage.Column{Ints: []int64{1, 2}},
		storage.Column{Floats: []float64{0.25, 0.75}},
	)
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
	if j.FieldIndex("cid") >= 0 {
		t.Fatal("the right key must be dropped")
	}
	oid := j.Columns()[j.FieldIndex("oid")].Ints
	tier := j.Columns()[j.FieldIndex("tier")].Ints
	credit := j.Columns()[j.FieldIndex("credit")].Floats
	if !slices.Equal(oid, []int64{1, 2, 3, 5}) || !slices.Equal(tier, []int64{1, 2, 1, 2}) ||
		!slices.Equal(credit, []float64{0.25, 0.75, 0.25, 0.75}) {
		t.Fatalf("orders %v, tiers %v, credits %v", oid, tier, credit)
	}
}

func TestHashJoinManyToMany(t *testing.T) {
	kv := func(v string) []storage.Field {
		return []storage.Field{{Name: "k", Type: storage.Int64}, {Name: v, Type: storage.Int64}}
	}
	a := mustTable(t, kv("u"), storage.Column{Ints: []int64{1, 2, 1}}, storage.Column{Ints: []int64{100, 150, 101}})
	b := mustTable(t, kv("v"), storage.Column{Ints: []int64{1, 3, 1}}, storage.Column{Ints: []int64{200, 250, 201}})
	j, err := HashJoin(a, b, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (cross product within key)", j.NumRows())
	}
	// Left rows in order; each left row's matches in right-row order.
	if u, v := j.Columns()[1].Ints, j.Columns()[2].Ints; !slices.Equal(u, []int64{100, 100, 101, 101}) ||
		!slices.Equal(v, []int64{200, 201, 200, 201}) {
		t.Fatalf("u %v, v %v: want 100 100 101 101 against 200 201 200 201", u, v)
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

// nestedLoopJoin is HashJoin's reference: every (left, right) row pair in
// that order, kept when the keys are equal, with right's key column dropped.
func nestedLoopJoin(left, right *storage.Table, li, ri int) ([]storage.Field, []storage.Column) {
	fields := slices.Clone(left.Fields())
	fields = append(fields, slices.Delete(slices.Clone(right.Fields()), ri, ri+1)...)
	cols := make([]storage.Column, len(fields))
	lk, rk := left.Columns()[li].Ints, right.Columns()[ri].Ints
	for l := range lk {
		for r := range rk {
			if lk[l] != rk[r] {
				continue
			}
			out := 0
			for _, side := range []struct {
				t    *storage.Table
				row  int
				skip int
			}{{left, l, -1}, {right, r, ri}} {
				for j := range side.t.Fields() {
					if j == side.skip {
						continue
					}
					c := side.t.Columns()[j]
					if c.Ints != nil {
						cols[out].Ints = append(cols[out].Ints, c.Ints[side.row])
					} else {
						cols[out].Floats = append(cols[out].Floats, c.Floats[side.row])
					}
					out++
				}
			}
		}
	}
	return fields, cols
}

// FuzzHashJoin joins two small tables whose int64 keys come from a domain of
// four, so both sides repeat keys, either side may hold keys the other
// lacks, and either side may be empty, and checks the output's schema, rows
// and row order against nestedLoopJoin. The right key sits between two
// payload columns, so dropping it shifts the columns after it.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 3, 1, 5, 1, 6, 2, 7, 3, 8, 1, 9, 1, 10, 0, 11, 1, 12})
	f.Add([]byte{5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		nl, nr := int(next()%9), int(next()%9)
		var lk, lu, rv, rk []int64
		var lx, rw []float64
		for range nl {
			lk = append(lk, int64(next()%4))
			lu = append(lu, int64(next()))
			lx = append(lx, float64(next())/4)
		}
		for range nr {
			rv = append(rv, int64(next()))
			rk = append(rk, int64(next()%4)+1)
			rw = append(rw, float64(next())/8)
		}
		left := mustTable(t, []storage.Field{
			{Name: "k", Type: storage.Int64}, {Name: "u", Type: storage.Int64}, {Name: "x", Type: storage.Float64},
		}, storage.Column{Ints: lk}, storage.Column{Ints: lu}, storage.Column{Floats: lx})
		right := mustTable(t, []storage.Field{
			{Name: "v", Type: storage.Int64}, {Name: "rk", Type: storage.Int64}, {Name: "w", Type: storage.Float64},
		}, storage.Column{Ints: rv}, storage.Column{Ints: rk}, storage.Column{Floats: rw})

		j, err := HashJoin(left, right, "k", "rk")
		if err != nil {
			t.Fatal(err)
		}
		fields, cols := nestedLoopJoin(left, right, 0, 1)
		if !slices.Equal(j.Fields(), fields) {
			t.Fatalf("schema %v, reference %v", j.Fields(), fields)
		}
		rows := len(cols[0].Ints)
		if j.NumRows() != rows {
			t.Fatalf("%d rows, reference %d", j.NumRows(), rows)
		}
		for i, want := range cols {
			got := j.Columns()[i]
			if !slices.Equal(got.Ints, want.Ints) || !slices.Equal(got.Floats, want.Floats) {
				t.Fatalf("column %s = %+v, reference %+v", fields[i].Name, got, want)
			}
		}
	})
}
