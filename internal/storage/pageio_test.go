package storage

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// pinFill pins id (size floats), writes fill(k) into word k and unpins it
// dirty, returning the address of the page's first word.
func pinFill(t *testing.T, bp *BufferPool, id PageID, size int, fill func(k int) float64) *float64 {
	t.Helper()
	data, err := bp.Pin(id, size)
	if err != nil {
		t.Fatal(err)
	}
	for k := range data {
		data[k] = fill(k)
	}
	bp.Unpin(id, true)
	return &data[0]
}

// touch pins and unpins the resident page id, so that it is the most
// recently pinned page: the next miss evicts it.
func touch(t *testing.T, bp *BufferPool, id PageID, size int) {
	t.Helper()
	hits := bp.Stats().Hits
	if _, err := bp.Pin(id, size); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, false)
	if bp.Stats().Hits != hits+1 {
		t.Fatalf("touch of page %v missed; the setup is wrong", id)
	}
}

// awkwardBits are float64 patterns a conversion could lose: NaN payloads,
// −0, ±Inf and subnormals.
var awkwardBits = []uint64{
	math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.Inf(1)),
	math.Float64bits(math.Inf(-1)),
	0x7ff8dead_beef0001, // quiet NaN with payload
	0x7ff00000_00000001, // signaling NaN pattern
	0xfff00000_0000abcd, // negative NaN with payload
	0x00000000_00000001, // smallest subnormal
	0x800fffff_ffffffff, // largest negative subnormal
}

// TestSpillReloadIntoRecycledPageBitIdentical: a page of awkward bit
// patterns, evicted to disk and reloaded into the buffer of another evicted
// page, comes back bit for bit — the spill file holds the page's memory
// verbatim, and a recycled buffer is overwritten whole.
func TestSpillReloadIntoRecycledPageBitIdentical(t *testing.T) {
	const size = 64
	bp, err := NewBufferPoolBytes(2*size*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := func(k int) float64 { return math.Float64frombits(awkwardBits[k%len(awkwardBits)]) }
	pinFill(t, bp, PageID{1, 0}, size, payload)
	pinFill(t, bp, PageID{1, 1}, size, func(k int) float64 { return float64(k + 1) })
	// Page 2 spills the payload page, page 3 spills page 1, and reloading
	// page 1 spills page 2; each takes the buffer of the page it evicted.
	// The payload then comes back into page 3's buffer. Each touch first
	// makes the page to evict the most recently pinned one.
	touch(t, bp, PageID{1, 0}, size)
	pinFill(t, bp, PageID{1, 2}, size, func(k int) float64 { return -float64(k) })
	touch(t, bp, PageID{1, 1}, size)
	slot := pinFill(t, bp, PageID{1, 3}, size, func(k int) float64 { return 7 })
	touch(t, bp, PageID{1, 2}, size)
	data, err := bp.Pin(PageID{1, 1}, size)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(PageID{1, 1}, false)
	touch(t, bp, PageID{1, 3}, size)
	back, err := bp.Pin(PageID{1, 0}, size)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(PageID{1, 0}, false)
	if &back[0] != slot {
		t.Fatalf("payload page not reloaded into the evicted page's buffer; test is vacuous")
	}
	for k, v := range back {
		if got, want := math.Float64bits(v), awkwardBits[k%len(awkwardBits)]; got != want {
			t.Fatalf("word %d: bits %#016x after spill round-trip, want %#016x", k, got, want)
		}
	}
	for k, v := range data {
		if v != float64(k+1) {
			t.Fatalf("page 1 word %d = %v after reload, want %v", k, v, float64(k+1))
		}
	}
}

// TestFirstTouchOnRecycledPageIsZero: a page pinned for the first time into
// the buffer of an evicted page holds zeros, not the evicted page's data.
func TestFirstTouchOnRecycledPageIsZero(t *testing.T) {
	const size = 32
	bp, err := NewBufferPoolBytes(2*size*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pinFill(t, bp, PageID{1, 1}, size, func(k int) float64 { return float64(k) })
	first := pinFill(t, bp, PageID{1, 0}, size, func(int) float64 { return math.NaN() })
	// A smaller page fits the most recently pinned page's buffer.
	data, err := bp.Pin(PageID{2, 0}, size-5)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(PageID{2, 0}, false)
	if &data[0] != first {
		t.Fatal("first touch did not land on the evicted page's buffer; test is vacuous")
	}
	for k, v := range data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("word %d of a first-touch page = %v, want +0", k, v)
		}
	}
	if got, want := bp.ResidentBytes(), int64(2*size*8); got != want {
		t.Fatalf("resident bytes %d, want %d: a recycled buffer is charged at its capacity", got, want)
	}
}

// TestSpillFileSizeMismatchIsError: a spill file truncated or extended on
// disk is an error naming the page, never a short or garbled page.
func TestSpillFileSizeMismatchIsError(t *testing.T) {
	const size = 16
	for _, c := range []struct {
		name  string
		bytes int
	}{{"truncated", 8*size - 3}, {"extended", 8*size + 8}, {"empty", 0}} {
		t.Run(c.name, func(t *testing.T) {
			bp, err := NewBufferPoolBytes(size*8, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			id := PageID{3, 4}
			pinFill(t, bp, id, size, func(k int) float64 { return float64(k) })
			pinFill(t, bp, PageID{3, 5}, size, func(int) float64 { return 1 }) // spills id
			if err := os.WriteFile(bp.pagePath(id), make([]byte, c.bytes), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = bp.Pin(id, size)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(id)) {
				t.Fatalf("pin of a %d-byte spill file: err = %v, want an error naming page %v", c.bytes, err, id)
			}
			if got := bp.ResidentBytes(); got > bp.Budget() {
				t.Fatalf("resident bytes %d over the %d budget after a failed read", got, bp.Budget())
			}
		})
	}
}

// spillCycle writes three pages of size floats through a pool that holds
// two, then pins clean spilled pages so that every pin is a spill read into
// the buffer the pin evicted. The set-up leaves pages 0 and 2 resident and
// page 1 on disk; a pin of the page on disk evicts the most recently pinned
// page, so the pins alternate between pages 1 and 2 while page 0 stays.
type spillCycle struct {
	bp   *BufferPool
	size int
	next int
}

func newSpillCycle(tb testing.TB, size int) *spillCycle {
	tb.Helper()
	bp, err := NewBufferPoolBytes(2*int64(size)*8, tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := PageID{1, i}
		data, err := bp.Pin(id, size)
		if err != nil {
			tb.Fatal(err)
		}
		data[size-1] = float64(i)
		bp.Unpin(id, true)
	}
	if err := bp.FlushAll(); err != nil {
		tb.Fatal(err)
	}
	return &spillCycle{bp: bp, size: size, next: 1}
}

func (s *spillCycle) pin(tb testing.TB) {
	id := PageID{1, s.next}
	s.next = 3 - s.next
	data, err := s.bp.Pin(id, s.size)
	if err != nil {
		tb.Fatal(err)
	}
	if data[s.size-1] != float64(id.Index) {
		tb.Fatalf("page %v reads back %v", id, data[s.size-1])
	}
	s.bp.Unpin(id, false)
}

// TestSpillReadAllocsIndependentOfPageSize: a steady-state spill read goes
// straight into a recycled page, so it allocates the same — a file handle
// and a path, nothing page-sized — for 8 KB pages and for 1 MB pages.
func TestSpillReadAllocsIndependentOfPageSize(t *testing.T) {
	var allocs, bytes []float64
	for _, size := range []int{1 << 10, 1 << 17} {
		s := newSpillCycle(t, size)
		for i := 0; i < 6; i++ {
			s.pin(t)
		}
		before := s.bp.Stats()
		allocs = append(allocs, testing.AllocsPerRun(30, func() { s.pin(t) }))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 30; i++ {
			s.pin(t)
		}
		runtime.ReadMemStats(&m1)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/30)
		st := s.bp.Stats()
		if reads := st.SpillReads - before.SpillReads; reads < 60 {
			t.Fatalf("%d-float pages: %d spill reads in 61 pins; the cycle does not spill", size, reads)
		}
		if st.SpillWrites != 3 {
			t.Fatalf("%d-float pages: %d spill writes, want the 3 of the setup", size, st.SpillWrites)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a spill read allocates %v times with 8 KB pages, %v with 1 MB pages", allocs[0], allocs[1])
	}
	// A little slack for whatever else the runtime allocates meanwhile; one
	// page-sized buffer would be 8 KB at the small size alone.
	if bytes[0] > 2048 || bytes[1] > bytes[0]+512 {
		t.Errorf("a spill read allocates %.0f bytes with 8 KB pages, %.0f with 1 MB pages", bytes[0], bytes[1])
	}
}

// TestResidentBytesWithinBudgetUnderRecycling: pages of random sizes, some
// reusing larger evicted buffers, never push the resident bytes (counted at
// capacity) past the budget, and every page reads back what was written.
func TestResidentBytesWithinBudgetUnderRecycling(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	bp, err := NewBufferPoolBytes(1000*8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 1 + r.Intn(300)
	}
	for round := 0; round < 5; round++ {
		for _, i := range r.Perm(len(sizes)) {
			id := PageID{1, i}
			data, err := bp.Pin(id, sizes[i])
			if err != nil {
				t.Fatal(err)
			}
			for k := range data {
				if want := float64(round*1000 + i); round > 0 && data[k] != want-1000 {
					t.Fatalf("round %d page %d word %d = %v, want %v", round, i, k, data[k], want-1000)
				}
				data[k] = float64(round*1000 + i)
			}
			bp.Unpin(id, true)
			if got := bp.ResidentBytes(); got > bp.Budget() {
				t.Fatalf("resident bytes %d over the %d budget", got, bp.Budget())
			}
		}
	}
	if bp.Stats().SpillReads == 0 {
		t.Fatal("no page was reloaded; test is vacuous")
	}
}

// BenchmarkSpillRead times one steady-state spill read: a pin of a clean
// spilled page that evicts another and reads the file into its buffer.
func BenchmarkSpillRead(b *testing.B) {
	for _, size := range []int{1 << 10, 50 << 10, 1 << 17} {
		b.Run(fmt.Sprintf("%dKB", size*8>>10), func(b *testing.B) {
			s := newSpillCycle(b, size)
			s.pin(b)
			b.SetBytes(int64(size) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.pin(b)
			}
		})
	}
}
