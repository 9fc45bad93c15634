package la

import (
	"math/rand"
	"testing"
)

// TestScoreRowsMatchesSingleRow: batched and single-row scoring agree bit
// for bit on both links — the rows go through the same Dot, the bias add is
// the same addition, and sigmoidTile is bit-exact against Sigmoid — which is
// what lets a client check a served score for equality.
func TestScoreRowsMatchesSingleRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		rows, cols int
		bias       float64
		link       Link
	}{
		{1, 4, 0, LinkIdentity},
		{17, 8, 0.25, LinkIdentity},
		{256, 32, -1.5, LinkLogistic},
		{1000, 16, 0.75, LinkLogistic},
		{3, 1, 2, LinkLogistic},
	} {
		x := NewDense(tc.rows, tc.cols)
		for i := range x.RawData() {
			x.RawData()[i] = rng.NormFloat64()
		}
		w := make([]float64, tc.cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		dst := make([]float64, tc.rows)
		ScoreRowsInto(dst, x, w, tc.bias, tc.link)
		for i := 0; i < tc.rows; i++ {
			want := ScoreRow(x.RowView(i), w, tc.bias, tc.link)
			if dst[i] != want {
				t.Fatalf("%dx%d %v: row %d batched %v != single %v",
					tc.rows, tc.cols, tc.link, i, dst[i], want)
			}
			if tc.link == LinkLogistic && (dst[i] < 0 || dst[i] > 1) {
				t.Fatalf("logistic score %v outside [0,1]", dst[i])
			}
		}
	}
}

func TestScoreRowsIdentityBitExact(t *testing.T) {
	// The identity link is one GEMV plus a bias add; batched and single-row
	// must agree bit-for-bit (same Dot kernel, same order).
	x := NewDense(64, 8)
	rng := rand.New(rand.NewSource(11))
	for i := range x.RawData() {
		x.RawData()[i] = rng.Float64()
	}
	w := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	dst := make([]float64, 64)
	ScoreRowsInto(dst, x, w, 0.5, LinkIdentity)
	for i := range dst {
		if want := ScoreRow(x.RowView(i), w, 0.5, LinkIdentity); dst[i] != want {
			t.Fatalf("row %d: batched %v != single %v", i, dst[i], want)
		}
	}
}

// TestScoreRowsLogisticDirect pins the logistic link: at every serving batch
// size it allocates nothing and returns exactly the bits of the fused
// sigmoid(margin + bias) program.
func TestScoreRowsLogisticDirect(t *testing.T) {
	fusedLink, err := CompileFused([]FusedOp{opsLoad(0), opsLoad(1), opsOp(FuseAdd), opsOp(FuseSigmoid)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	const cols = 16
	w := make([]float64, cols)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for _, rows := range []int{1, 4, 32, 256} {
		x := randMat(rng, rows, cols, 0)
		for _, bias := range []float64{0, -0.75, 3} {
			dst := make([]float64, rows)
			ScoreRowsInto(dst, x, w, bias, LinkLogistic)
			margins := NewDense(rows, 1)
			MatVecInto(margins.data, x, w)
			want := FusedCellInto(NewDense(rows, 1), fusedLink, []FusedInput{DenseInput(margins), ScalarInput(bias)})
			if !bitsEqual(dst, want.data) {
				t.Fatalf("%d rows, bias %g: direct link differs from the fused program", rows, bias)
			}
		}
		dst := make([]float64, rows)
		if a := testing.AllocsPerRun(50, func() { ScoreRowsInto(dst, x, w, 0.5, LinkLogistic) }); a != 0 {
			t.Errorf("%d rows: ScoreRowsInto allocates %v per run, want 0", rows, a)
		}
	}
}

func BenchmarkScoreRowsBatched(b *testing.B) {
	const rows, cols = 256, 32
	x := NewDense(rows, cols)
	for i := range x.RawData() {
		x.RawData()[i] = float64(i%13) * 0.1
	}
	w := make([]float64, cols)
	for i := range w {
		w[i] = 0.01 * float64(i)
	}
	dst := make([]float64, rows)
	ScoreRowsInto(dst, x, w, 0.1, LinkLogistic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreRowsInto(dst, x, w, 0.1, LinkLogistic)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkScoreRowsSingle(b *testing.B) {
	const rows, cols = 256, 32
	x := NewDense(rows, cols)
	for i := range x.RawData() {
		x.RawData()[i] = float64(i%13) * 0.1
	}
	w := make([]float64, cols)
	for i := range w {
		w[i] = 0.01 * float64(i)
	}
	dst := make([]float64, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			dst[r] = ScoreRow(x.RowView(r), w, 0.1, LinkLogistic)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
