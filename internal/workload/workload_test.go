package workload

import (
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
	"dmml/internal/relational"
	"dmml/internal/storage"
)

func TestRegressionGenerator(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	x, y, w := Regression(r, 200, 5, 0)
	// Zero noise: y must equal X·w exactly.
	pred := la.MatVec(x, w)
	for i := range y {
		if y[i] != pred[i] {
			t.Fatal("noise-free regression labels do not match X·w")
		}
	}
	// Determinism under the same seed.
	r2 := rand.New(rand.NewSource(70))
	x2, y2, _ := Regression(r2, 200, 5, 0)
	if !x.Equal(x2, 0) || y[0] != y2[0] {
		t.Fatal("generator is not deterministic for a fixed seed")
	}
}

func TestClassificationGenerator(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	x, y, w := Classification(r, 500, 4, 0)
	for i := range y {
		if y[i] != 1 && y[i] != -1 {
			t.Fatalf("label %v not in {-1,+1}", y[i])
		}
		m := la.Dot(x.RowView(i), w)
		if (m >= 0) != (y[i] > 0) {
			t.Fatal("noise-free labels disagree with true margin")
		}
	}
	// With flip=1 every label is inverted.
	r3 := rand.New(rand.NewSource(71))
	_, yFlip, _ := Classification(r3, 500, 4, 1)
	for i := range yFlip {
		if yFlip[i] != -y[i] {
			t.Fatal("flip=1 must invert all labels")
		}
	}
}

func TestSparseMatrixDensity(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	m, err := SparseMatrix(r, 200, 50, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(m.NNZ()) / (200 * 50)
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("density = %v, want ≈ 0.1", got)
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	// Uniform: all categories roughly equal.
	uni := Zipf(r, 50000, 10, 0)
	counts := make([]int, 10)
	for _, c := range uni {
		counts[c]++
	}
	for _, c := range counts {
		if c < 4000 || c > 6000 {
			t.Fatalf("uniform Zipf counts = %v", counts)
		}
	}
	// Skewed: category 0 dominates.
	skew := Zipf(r, 50000, 10, 1.5)
	counts = make([]int, 10)
	for _, c := range skew {
		counts[c]++
	}
	if counts[0] < 3*counts[9] {
		t.Fatalf("skewed Zipf counts = %v, want head ≫ tail", counts)
	}
	// Range check.
	for _, c := range skew {
		if c < 0 || c >= 10 {
			t.Fatalf("Zipf code %d out of range", c)
		}
	}
}

func TestTelemetryMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	m := TelemetryMatrix(r, 1000, []int{5, 100}, 1.0)
	if rows, cols := m.Dims(); rows != 1000 || cols != 2 {
		t.Fatalf("dims = %dx%d", rows, cols)
	}
	for i := 0; i < 1000; i++ {
		if v := m.At(i, 0); v < 0 || v > 4 {
			t.Fatalf("column 0 value %v out of range", v)
		}
	}
}

func TestClusteredPoints(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	x, assign, centers := ClusteredPoints(r, 300, 3, 4, 0.1)
	if rows, _ := x.Dims(); rows != 300 {
		t.Fatalf("rows = %d", rows)
	}
	// With tiny spread every point must be far closer to its own center.
	for i := 0; i < 300; i++ {
		own := la.Norm2(la.SubVec(x.RowView(i), centers.RowView(assign[i])))
		for c := 0; c < 4; c++ {
			if c == assign[i] {
				continue
			}
			other := la.Norm2(la.SubVec(x.RowView(i), centers.RowView(c)))
			if other < own {
				t.Fatalf("point %d closer to foreign center %d", i, c)
			}
		}
	}
}

func starConfig() StarConfig {
	return StarConfig{
		FactRows:  400,
		FactFeats: 3,
		DimRows:   []int{40, 25},
		DimFeats:  []int{4, 2},
		Task:      RegressionTask,
		DimSignal: 1,
	}
}

func TestGenerateStarShapes(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	s, err := GenerateStar(r, starConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalFeatures() != 3+4+2 {
		t.Fatalf("TotalFeatures = %d", s.TotalFeatures())
	}
	m := s.Materialize()
	if rows, cols := m.Dims(); rows != 400 || cols != 9 {
		t.Fatalf("materialized dims = %dx%d", rows, cols)
	}
	// Noise-free regression: y = M·wTrue exactly.
	pred := la.MatVec(m, s.WTrue)
	for i := range s.Y {
		if math.Abs(pred[i]-s.Y[i]) > 1e-12 {
			t.Fatal("labels disagree with materialized features")
		}
	}
}

func TestGenerateStarValidation(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	bad := starConfig()
	bad.FactRows = 0
	if _, err := GenerateStar(r, bad); err == nil {
		t.Fatal("want fact rows error")
	}
	bad = starConfig()
	bad.DimFeats = []int{1}
	if _, err := GenerateStar(r, bad); err == nil {
		t.Fatal("want dims length mismatch error")
	}
}

// The relational-engine materialization must agree with Star.Materialize.
func TestStarTablesJoinMatchesMaterialize(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	cfg := starConfig()
	cfg.FactRows = 120
	s, err := GenerateStar(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fact, dims, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	joined := fact
	for k, dim := range dims {
		joined, err = relational.HashJoin(joined, dim, "fk"+string(rune('0'+k)), "id", relational.JoinOptions{DropRightKey: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	if joined.NumRows() != 120 {
		t.Fatalf("joined rows = %d", joined.NumRows())
	}
	// Column order: f0..f2, d0_0..d0_3, d1_0..d1_1.
	cols := []string{"f0", "f1", "f2", "d0_0", "d0_1", "d0_2", "d0_3", "d1_0", "d1_1"}
	got, err := storage.ToMatrix(joined, cols)
	if err != nil {
		t.Fatal(err)
	}
	// The join preserves fact-row order for PK-FK joins in our engine.
	want := s.Materialize()
	if !got.Equal(want, 1e-12) {
		t.Fatal("relational materialization disagrees with direct materialization")
	}
	labels, err := storage.ToMatrix(joined, []string{"label"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Y {
		if labels.At(i, 0) != s.Y[i] {
			t.Fatal("labels scrambled by join")
		}
	}
}

func TestStarClassificationTask(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	cfg := starConfig()
	cfg.Task = ClassificationTask
	s, err := GenerateStar(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Y {
		if v != 1 && v != -1 {
			t.Fatalf("classification label %v", v)
		}
	}
}

func TestStarDimSignalZero(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	cfg := starConfig()
	cfg.DimSignal = 0
	s, err := GenerateStar(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range s.WTrue[cfg.FactFeats:] {
		if w != 0 {
			t.Fatal("DimSignal=0 must zero all dimension weights")
		}
	}
}
