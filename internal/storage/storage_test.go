package storage

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dmml/internal/la"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{"id", Int64},
		Field{"visits", Int64},
		Field{"score", Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("want error for empty schema")
	}
	if _, err := NewSchema(Field{"a", Int64}, Field{"a", Float64}); err == nil {
		t.Fatal("want error for duplicate names")
	}
	if _, err := NewSchema(Field{"", Int64}); err == nil {
		t.Fatal("want error for empty name")
	}
	s := testSchema(t)
	if s.FieldIndex("score") != 2 || s.FieldIndex("missing") != -1 {
		t.Fatal("FieldIndex wrong")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.AppendRow(int64(1), int64(3), 0.9); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(2, 4, 0.5); err != nil { // plain int accepted
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Type errors.
	if err := tb.AppendRow("x", int64(1), 0.0); err == nil {
		t.Fatal("want int64 type error")
	}
	if err := tb.AppendRow(int64(1), int64(1), 1); err == nil {
		t.Fatal("want float64 type error")
	}
	if err := tb.AppendRow(int64(1), int64(1)); err == nil {
		t.Fatal("want arity error")
	}
}

// The table's one cell accessor returns each column's own Go type.
func TestTableValueAndNumericColumns(t *testing.T) {
	tb := NewTable(testSchema(t))
	_ = tb.AppendRow(int64(1), 6, 2.5)
	if v := tb.Value(0, 0).(int64); v != 1 {
		t.Fatalf("Value int = %v", v)
	}
	if v := tb.Value(0, 1).(int64); v != 6 {
		t.Fatalf("Value int from plain int = %v", v)
	}
	if v := tb.Value(0, 2).(float64); v != 2.5 {
		t.Fatalf("Value float = %v", v)
	}
}

// formatCSV renders m as headerless CSV with the shortest exact float
// formatting and, when pad is set, blanks around every field.
func formatCSV(m *la.Dense, pad bool) string {
	var b strings.Builder
	for i := 0; i < m.Rows(); i++ {
		for j, v := range m.RowView(i) {
			if j > 0 {
				b.WriteByte(',')
			}
			if pad {
				b.WriteString("  ")
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			if pad {
				b.WriteByte('\t')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanCSV reads headerless numeric CSV into a matrix through ScanMatrixCSV.
func scanCSV(text string) (*la.Dense, error) {
	var data []float64
	cols := 0
	err := ScanMatrixCSV(strings.NewReader(text), func(vals []float64) error {
		cols = len(vals)
		data = append(data, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return la.NewDenseData(len(data)/cols, cols, data)
}

// CSV written with exact float formatting reads back bit for bit, blanks
// around the fields included.
func TestCSVRoundTrip(t *testing.T) {
	m, _ := la.FromRows([][]float64{
		{0.1, -3.5, 1e-300, math.MaxFloat64},
		{-1e-7, 7, 2.5e10, math.SmallestNonzeroFloat64},
	})
	for _, pad := range []bool{false, true} {
		got, err := scanCSV(formatCSV(m, pad))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(m, 0) {
			t.Fatalf("pad=%v: read back %v, want %v", pad, got, m)
		}
	}
}

// ReadMatrixCSVFile loads a file written the same way, one row per line.
func TestCSVFileHelpers(t *testing.T) {
	m, _ := la.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {-7, 8.25, 9}})
	path := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(path, []byte(formatCSV(m, false)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatalf("ReadMatrixCSVFile = %v, want %v", got, m)
	}
}

// Property: arbitrary matrices survive the CSV round trip bit for bit.
func TestPersistenceRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := la.NewDense(1+r.Intn(30), 1+r.Intn(8))
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, r.NormFloat64()*math.Pow(10, float64(r.Intn(40)-20)))
			}
		}
		got, err := scanCSV(formatCSV(m, r.Intn(2) == 0))
		return err == nil && got.Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestToMatrix(t *testing.T) {
	tb := NewTable(testSchema(t))
	_ = tb.AppendRow(int64(7), int64(1), 0.5)
	_ = tb.AppendRow(int64(8), int64(2), 1.5)
	m, err := ToMatrix(tb, []string{"score", "id"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := la.FromRows([][]float64{{0.5, 7}, {1.5, 8}})
	if !m.Equal(want, 0) {
		t.Fatalf("ToMatrix = %v", m)
	}
	if _, err := ToMatrix(tb, []string{"name"}); err == nil {
		t.Fatal("want missing field error")
	}
	if _, err := ToMatrix(NewTable(testSchema(t)), []string{"id"}); err == nil {
		t.Fatal("want empty table error")
	}
}

func TestBufferPoolBasics(t *testing.T) {
	bp, err := NewBufferPoolBytes(2*4*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idA := PageID{1, 0}
	data, err := bp.Pin(idA, 4)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 42
	bp.Unpin(idA, true)
	// Re-pin hits cache.
	data2, _ := bp.Pin(idA, 4)
	if data2[0] != 42 {
		t.Fatal("page content lost while resident")
	}
	bp.Unpin(idA, false)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferPoolEvictionAndReload(t *testing.T) {
	bp, err := NewBufferPoolBytes(2*3*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Fill three pages through a 2-page pool; page 0, pinned second, is the
	// most recently pinned page when page 2 arrives, so it must spill and
	// reload.
	for _, i := range []int{1, 0, 2} {
		id := PageID{1, i}
		data, err := bp.Pin(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = float64(100 + i)
		bp.Unpin(id, true)
	}
	st := bp.Stats()
	if st.Evictions == 0 || st.SpillWrites == 0 {
		t.Fatalf("expected evictions and spills, got %+v", st)
	}
	data, err := bp.Pin(PageID{1, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 100 {
		t.Fatalf("reloaded page content = %v, want 100", data[0])
	}
	bp.Unpin(PageID{1, 0}, false)
	if bp.Stats().SpillReads == 0 {
		t.Fatal("expected a spill read")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp, _ := NewBufferPoolBytes(1*2*8, t.TempDir())
	if _, err := bp.Pin(PageID{1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Pin(PageID{1, 1}, 2); err == nil {
		t.Fatal("want exhaustion error when all pages pinned")
	}
	bp.Unpin(PageID{1, 0}, false)
}

func TestBufferPoolFailureInjection(t *testing.T) {
	bp, _ := NewBufferPoolBytes(1*2*8, t.TempDir())
	injected := errors.New("disk on fire")
	bp.SetFailureHooks(nil, func(PageID) error { return injected })
	d, _ := bp.Pin(PageID{1, 0}, 2)
	d[0] = 1
	bp.Unpin(PageID{1, 0}, true)
	// Eviction must surface the injected write error.
	if _, err := bp.Pin(PageID{1, 1}, 2); err == nil || !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected write failure", err)
	}
	// Clear write failure, allow spill, then inject read failure.
	bp.SetFailureHooks(nil, nil)
	if _, err := bp.Pin(PageID{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(PageID{1, 1}, false)
	bp.SetFailureHooks(func(PageID) error { return injected }, nil)
	if _, err := bp.Pin(PageID{1, 0}, 2); err == nil || !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected read failure", err)
	}
}

// The numeric-CSV parser numbers rows and columns from 1 in every error and
// rejects ragged, non-numeric and empty input.
func TestScanMatrixCSVErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty"},
		{"1,2\n3\n", "row 2 has 1 fields, want 2"},
		{"1,2\n3,nope\n", "row 2 col 2"},
		{"1,\"2\n", "csv read"},
	}
	for _, c := range cases {
		err := ScanMatrixCSV(strings.NewReader(c.in), func([]float64) error { return nil })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ScanMatrixCSV(%q) err = %v, want %q", c.in, err, c.want)
		}
	}
	stop := errors.New("stop")
	if err := ScanMatrixCSV(strings.NewReader("1\n2\n"), func([]float64) error { return stop }); err != stop {
		t.Fatalf("callback error = %v, want it returned as is", err)
	}
	if _, err := ReadMatrixCSVFile("/nonexistent/x.csv"); err == nil {
		t.Fatal("want open error")
	}
}

// Dirty pages written through a pool smaller than the page set must spill on
// eviction and reload with their content intact.
func TestBufferPoolDirtySpillRoundTrip(t *testing.T) {
	const pages, pageFloats = 5, 40
	bp, _ := NewBufferPoolBytes(3*pageFloats*8, t.TempDir())
	r := rand.New(rand.NewSource(50))
	want := make([][]float64, pages)
	for i := range want {
		data, err := bp.Pin(PageID{1, i}, pageFloats)
		if err != nil {
			t.Fatal(err)
		}
		for k := range data {
			data[k] = r.NormFloat64()
		}
		want[i] = append([]float64(nil), data...)
		bp.Unpin(PageID{1, i}, true)
	}
	if bp.Stats().SpillWrites == 0 {
		t.Fatal("expected spills with 5 pages through a 3-page budget")
	}
	for i := range want {
		data, err := bp.Pin(PageID{1, i}, pageFloats)
		if err != nil {
			t.Fatal(err)
		}
		for k := range data {
			if data[k] != want[i][k] {
				t.Fatalf("page %d float %d = %v after spill, want %v", i, k, data[k], want[i][k])
			}
		}
		bp.Unpin(PageID{1, i}, false)
	}
	if bp.Stats().SpillReads == 0 {
		t.Fatal("expected spill reads on the second pass")
	}
}

// DropOwner must refuse while any of the owner's pages is pinned, and once
// they are released forget them in memory and on disk.
func TestDropOwnerWhilePinned(t *testing.T) {
	bp, _ := NewBufferPoolBytes(2*2*8, t.TempDir())
	id := PageID{1, 0}
	d, err := bp.Pin(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 7
	if err := bp.DropOwner(1); err == nil || !strings.Contains(err.Error(), "still pinned") {
		t.Fatalf("err = %v, want still-pinned error", err)
	}
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropOwner(1); err != nil {
		t.Fatal(err)
	}
	if bp.ResidentBytes() != 0 {
		t.Fatalf("resident after drop: %d bytes", bp.ResidentBytes())
	}
	if _, err := os.Stat(bp.pagePath(id)); !os.IsNotExist(err) {
		t.Fatalf("spill file survived DropOwner: %v", err)
	}
	// A fresh pin of the same id is a new zeroed page, not the dropped one.
	d, err = bp.Pin(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0 {
		t.Fatalf("dropped page content resurfaced: %v", d[0])
	}
	bp.Unpin(id, false)
}

// TestDropOwnerWithOnePinnedPageDropsNothing: an owner with dirty unpinned
// pages and one pinned page is refused whole — no page is discarded, so
// every page, including those never written to disk, reads back.
func TestDropOwnerWithOnePinnedPageDropsNothing(t *testing.T) {
	const pages, size = 9, 4
	// Map order decides where the pinned page falls among the owner's
	// pages; repeat so that a drop which stops at it is caught.
	for rep := 0; rep < 20; rep++ {
		bp, err := NewBufferPoolBytes(pages*size*8, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		owner := bp.RegisterOwner()
		for i := 0; i < pages; i++ {
			d, err := bp.Pin(PageID{owner, i}, size)
			if err != nil {
				t.Fatal(err)
			}
			d[0] = float64(i + 1)
			if i != pages/2 {
				bp.Unpin(PageID{owner, i}, true)
			}
		}
		if err := bp.DropOwner(owner); err == nil || !strings.Contains(err.Error(), "still pinned") {
			t.Fatalf("err = %v, want still-pinned error", err)
		}
		bp.Unpin(PageID{owner, pages / 2}, true)
		for i := 0; i < pages; i++ {
			d, err := bp.Pin(PageID{owner, i}, size)
			if err != nil {
				t.Fatal(err)
			}
			if d[0] != float64(i+1) {
				t.Fatalf("rep %d: page %d reads %v after a refused DropOwner, want %v", rep, i, d[0], float64(i+1))
			}
			bp.Unpin(PageID{owner, i}, false)
		}
		if got, want := bp.ResidentBytes(), int64(pages*size*8); got != want {
			t.Fatalf("rep %d: resident bytes %d after a refused DropOwner, want %d", rep, got, want)
		}
	}
}

// TestCyclicScanRereadsOnlyWhatDoesNotFit: n pages scanned in order, pass
// after pass, through a pool that holds k of them reread n − k + O(1) pages
// per pass after the first, with or without the next page pinned before the
// current one is released (the block prefetcher's pattern). Evicting the
// least recently used page would reread all n.
func TestCyclicScanRereadsOnlyWhatDoesNotFit(t *testing.T) {
	const n, k, size = 20, 8, 16
	for _, ahead := range []bool{false, true} {
		bp, err := NewBufferPoolBytes(k*size*8, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			d, err := bp.Pin(PageID{1, i}, size)
			if err != nil {
				t.Fatal(err)
			}
			d[0] = float64(i)
			bp.Unpin(PageID{1, i}, true)
		}
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		pin := func(i int) {
			d, err := bp.Pin(PageID{1, i}, size)
			if err != nil {
				t.Fatal(err)
			}
			if d[0] != float64(i) {
				t.Fatalf("page %d reads %v", i, d[0])
			}
		}
		for pass := 0; pass < 12; pass++ {
			before := bp.Stats().SpillReads
			if ahead {
				pin(0)
			}
			for i := 0; i < n; i++ {
				if !ahead {
					pin(i)
				} else if i+1 < n {
					pin(i + 1)
				}
				bp.Unpin(PageID{1, i}, false)
			}
			reads := bp.Stats().SpillReads - before
			if pass > 0 && (reads < n-k || reads > n-k+2) {
				t.Fatalf("pinning ahead %v, pass %d: %d spill reads, want %d to %d", ahead, pass, reads, n-k, n-k+2)
			}
		}
	}
}

func TestColTypeString(t *testing.T) {
	if Float64.String() != "float64" || Int64.String() != "int64" {
		t.Fatal("ColType names wrong")
	}
	if ColType(9).String() == "" {
		t.Fatal("unknown ColType must format")
	}
}

func TestFlushAllAndResidentPages(t *testing.T) {
	bp, _ := NewBufferPoolBytes(4*2*8, t.TempDir())
	for i := 0; i < 3; i++ {
		d, err := bp.Pin(PageID{1, i}, 2)
		if err != nil {
			t.Fatal(err)
		}
		d[0] = float64(i)
		bp.Unpin(PageID{1, i}, true)
	}
	if bp.ResidentBytes() != 3*2*8 {
		t.Fatalf("resident = %d bytes", bp.ResidentBytes())
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().SpillWrites != 3 {
		t.Fatalf("spill writes = %d", bp.Stats().SpillWrites)
	}
	// Flushing again is a no-op (pages clean).
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if bp.Stats().SpillWrites != 3 {
		t.Fatal("clean pages rewritten")
	}
	bp.ResetStats()
	if s := bp.Stats(); s.SpillWrites != 0 || s.Hits != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

// Satellite regression: pinning a page with a size that disagrees with the
// page's fixed length (resident or spilled) must fail descriptively instead
// of silently handing back a slice of unexpected length.
func TestBufferPoolPinSizeMismatch(t *testing.T) {
	bp, err := NewBufferPoolBytes(1*4*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := PageID{1, 0}
	d, err := bp.Pin(id, 4)
	if err != nil {
		t.Fatal(err)
	}
	d[0] = 42
	// Resident with length 4: a size-6 pin is a caller bug.
	if _, err := bp.Pin(id, 6); err == nil || !strings.Contains(err.Error(), "resident") {
		t.Fatalf("resident mismatch err = %v, want descriptive size error", err)
	}
	bp.Unpin(id, true)
	// Evict it to disk by filling the 1-page pool with another page.
	if _, err := bp.Pin(PageID{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(PageID{1, 1}, false)
	if _, err := bp.Pin(id, 6); err == nil || !strings.Contains(err.Error(), "on disk with 4") {
		t.Fatalf("on-disk mismatch err = %v, want descriptive size error", err)
	}
	// The correct size still round-trips the content.
	d, err = bp.Pin(id, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 42 {
		t.Fatalf("reloaded d[0] = %v, want 42", d[0])
	}
	bp.Unpin(id, false)
}

// Satellite regression: DropOwner must report spill files it failed to
// remove instead of silently leaking them.
func TestDropOwnerReportsRemoveFailures(t *testing.T) {
	bp, err := NewBufferPoolBytes(1*2*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := PageID{1, 0}
	d, _ := bp.Pin(id, 2)
	d[0] = 1
	bp.Unpin(id, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Replace the spill file with a non-empty directory of the same name so
	// os.Remove fails even when running as root.
	path := bp.pagePath(id)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	err = bp.DropOwner(1)
	if err == nil || !strings.Contains(err.Error(), "DropOwner 1") {
		t.Fatalf("err = %v, want collected os.Remove failure", err)
	}
	// The pool forgot the page either way.
	if _, onDisk := bp.onDisk[id]; onDisk {
		t.Fatal("onDisk entry must be dropped even when Remove fails")
	}
}

// Checkpoint write/read round trip, atomicity (no temp droppings), and
// corruption detection.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ck")
	w := []float64{1.5, -2.25, 0, 1e300, -1e-300}
	if err := WriteCheckpoint(path, 77, w); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot — the atomic rename path.
	w2 := []float64{9, 8, 7}
	if err := WriteCheckpoint(path, 78, w2); err != nil {
		t.Fatal(err)
	}
	clock, got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if clock != 78 || len(got) != 3 {
		t.Fatalf("clock=%d len=%d, want 78, 3", clock, len(got))
	}
	for i := range got {
		if got[i] != w2[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], w2[i])
		}
	}
	// No leftover temp files from either write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want only the checkpoint (temp file leaked?)", len(entries))
	}
	// Corruption: bad magic and truncation must both fail.
	if err := os.WriteFile(path, []byte("NOPE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("want bad-header error")
	}
	if err := WriteCheckpoint(path, 1, w); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:len(full)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(path); err == nil {
		t.Fatal("want truncation error")
	}
	if _, _, err := ReadCheckpoint(filepath.Join(dir, "missing.ck")); err == nil {
		t.Fatal("want missing-file error")
	}
}
