package ooc

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

// streamGoldenPath holds one line per value of opt.StreamingSGD's result
// over goldenStream — every W[j], then every History[e] — as its
// Float64bits in hex. Every block here is compressed, so each step is
// (*compress.Matrix).LossGradAccum: its loss and gradient sum a fixed grid
// of row ranges that depends on the block alone, merged in range order.
// The file was written from streamGoldenLines when that one-pass step
// replaced the three passes (whose loss and gradient summed in another
// order), and again when the builder began co-coding column pairs (a pair's
// margin terms are summed in its joint dictionary) and the step's grid began
// counting the loss tile's work; it pins the bits at every core count, not
// merely a tolerance.
const streamGoldenPath = "testdata/stream_golden.txt"

// goldenStream builds a matrix of the benchmark's out-of-core block shape —
// 4096-row blocks of 32 Zipf-categorical columns and 8 Gaussian ones, each
// block over the pool's gate — and its labels, and
// pages it into a pool smaller than its paged form, with the prefetcher on.
func goldenStream(t *testing.T) (*Matrix, []float64) {
	t.Helper()
	const rows, blockRows = 4 * 4096, 4096
	r := rand.New(rand.NewSource(33))
	cards := []int{
		8, 16, 4, 32, 64, 5, 9, 12, 3, 7, 24, 48, 6, 10, 2, 20,
		14, 28, 11, 40, 18, 3, 5, 36, 9, 22, 4, 13, 56, 6, 26, 8,
	}
	cat := workload.TelemetryMatrix(r, rows, cards, 1)
	x := la.NewDense(rows, len(cards)+8)
	wTrue := make([]float64, x.Cols())
	for j := range wTrue {
		wTrue[j] = r.NormFloat64()
	}
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		row := x.RowView(i)
		copy(row, cat.RowView(i))
		for j := len(cards); j < len(row); j++ {
			row[j] = r.NormFloat64()
		}
		y[i] = 1
		if (la.Dot(row, wTrue) < 1) != (r.Float64() < 0.05) {
			y[i] = -1
		}
	}
	budget := 8 * int64(rows) * int64(x.Cols()) / 5 // room for two blocks' pages
	bp := newPool(t, budget)
	m, err := FromDense(bp, x, Options{BlockRows: blockRows, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBlocks() != rows/blockRows || m.CompressedBlocks() != m.NumBlocks() {
		t.Fatalf("%d blocks, %d compressed; want %d, all compressed", m.NumBlocks(), m.CompressedBlocks(), rows/blockRows)
	}
	if m.PagedBytes() <= budget {
		t.Fatalf("paged %d bytes fit the %d-byte pool: the stream would not spill", m.PagedBytes(), budget)
	}
	return m, y
}

// streamGoldenLines runs StreamingSGD over m at the current GOMAXPROCS and
// renders the golden file's lines.
func streamGoldenLines(t *testing.T, m *Matrix, y []float64) []string {
	t.Helper()
	res, err := opt.StreamingSGD(m, y, opt.Logistic{}, opt.StreamConfig{Step: 0.05, Decay: 0.9, L2: 1e-3, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for j, w := range res.W {
		lines = append(lines, fmt.Sprintf("W[%d] %016x", j, math.Float64bits(w)))
	}
	for e, h := range res.History {
		lines = append(lines, fmt.Sprintf("History[%d] %016x", e, math.Float64bits(h)))
	}
	return lines
}

// StreamingSGD over compressed out-of-core blocks must reproduce the golden
// bits at GOMAXPROCS 1, 2 and 4: the one-pass step's grid and merge order do
// not depend on the core count, and each range sums every row's margin in
// group order.
func TestStreamingSGDGoldenBits(t *testing.T) {
	f, err := os.Open(streamGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	m, y := goldenStream(t)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		got := streamGoldenLines(t, m, y)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d values, golden has %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d: got %q, golden %q", p, got[i], want[i])
			}
		}
	}
}

// TestBuilderCoCodesBlocks: the builder co-codes column pairs, so every block
// of the benchmark's block shape carries fewer groups than columns.
func TestBuilderCoCodesBlocks(t *testing.T) {
	m, _ := goldenStream(t)
	for i := range m.blocks {
		b, err := m.pinBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		groups := b.Groups()
		m.unpinBlock(i)
		if len(groups) >= m.Cols() {
			t.Fatalf("block %d: %d groups for %d columns; the builder did not co-code", i, len(groups), m.Cols())
		}
	}
}
