package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"dmml/internal/la"
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
	// A star is a one-level snowflake: every dimension joins the fact table.
	if len(s.X) != 3 || s.Parents[1] != 0 || s.Parents[2] != 0 || len(s.FKs[1]) != 400 || s.Rows[2] != 25 {
		t.Fatalf("star tree: parents %v, rows %v", s.Parents, s.Rows)
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

// checkJoinedMatrix asserts that the relational engine's join of s's tables
// equals Materialize bit for bit, and that the fact table carries Y.
func checkJoinedMatrix(t *testing.T, s *Snowflake) {
	t.Helper()
	tables, err := s.Tables()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.JoinedMatrix(tables)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Materialize()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("joined %dx%d, materialized %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j, w := range want.RowView(i) {
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("joined[%d,%d] = %v, materialized %v", i, j, g, w)
			}
		}
	}
	labels, err := storage.ToMatrix(tables[0], []string{"label"})
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range s.Y {
		if labels.At(i, 0) != y {
			t.Fatalf("fact table label %d = %v, want %v", i, labels.At(i, 0), y)
		}
	}
}

// The relational-engine materialization of a star must agree with
// Materialize.
func TestStarTablesJoinMatchesMaterialize(t *testing.T) {
	cfg := starConfig()
	cfg.FactRows = 120
	s, err := GenerateStar(rand.New(rand.NewSource(78)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkJoinedMatrix(t, s)
}

// JoinedMatrix renders and joins a tree at any depth: here two levels under
// a key-only link, a single-row relation and a second branch.
func TestSnowflakeJoinedMatrixMatchesMaterialize(t *testing.T) {
	s, err := GenerateSnowflake(rand.New(rand.NewSource(81)), SnowflakeConfig{
		FactRows:  150,
		FactFeats: 2,
		Nodes: []SnowNode{
			{Rows: 30, Feats: 0, Parent: -1}, // key-only link
			{Rows: 8, Feats: 3, Parent: 0},   // ← link
			{Rows: 1, Feats: 2, Parent: 1},   // single row ← node 1
			{Rows: 12, Feats: 4, Parent: -1},
		},
		Task:   RegressionTask,
		Signal: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkJoinedMatrix(t, s)
}

// snowflakeDigest is the SHA-256 of a generated schema's bits: each node's X
// in node order (row-major, nil skipped), then every FK, then Y, then WTrue,
// as little-endian 64-bit words.
func snowflakeDigest(s *Snowflake) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, x := range s.X {
		if x == nil {
			continue
		}
		for i := 0; i < x.Rows(); i++ {
			for _, v := range x.RowView(i) {
				put(math.Float64bits(v))
			}
		}
	}
	for _, fk := range s.FKs {
		for _, k := range fk {
			put(uint64(k))
		}
	}
	for _, v := range s.Y {
		put(math.Float64bits(v))
	}
	for _, v := range s.WTrue {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGolden pins every generated bit of four schemas: E1's
// regression star and E2's classification star at quick scale, and two
// snowflakes, the second with a key-only link and a single-row relation.
// The digests were taken from the generators as they stood when stars and
// snowflakes still had separate types; a generator change that moves any
// bit fails here.
func TestGeneratorGolden(t *testing.T) {
	digest := func(s *Snowflake, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		return snowflakeDigest(s)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"E1 star", digest(GenerateStar(rand.New(rand.NewSource(1005)), StarConfig{
			FactRows: 10000, FactFeats: 4, DimRows: []int{2000}, DimFeats: []int{30},
			Task: RegressionTask, Noise: 0.1, DimSignal: 1,
		})), "5aa56c2fcc9dc9143c8ce29d1bdcb9fa04f97b7cf79336cf6a00b82c08ccfb30"},
		{"E2 star", digest(GenerateStar(rand.New(rand.NewSource(2001)), StarConfig{
			FactRows: 2000, FactFeats: 4, DimRows: []int{10}, DimFeats: []int{6},
			Task: ClassificationTask, Noise: 0.02, DimSignal: 0.3,
		})), "3a32a211ffefaf12196d8b9e8e77728fca178cf8606844c86187bd1a75a0b1e0"},
		{"depth-2 snowflake", digest(GenerateSnowflake(rand.New(rand.NewSource(4401)), SnowflakeConfig{
			FactRows: 3000, FactFeats: 5,
			Nodes: []SnowNode{
				{Rows: 200, Feats: 6, Parent: -1}, {Rows: 20, Feats: 4, Parent: 0}, {Rows: 300, Feats: 3, Parent: -1},
			},
			Task: RegressionTask, Noise: 0.1, Signal: 0.5,
		})), "cad062e9446d7a989ce772c71e25be657affb1f6f184c41d51d82605cd3fd3c9"},
		{"key-only snowflake", digest(GenerateSnowflake(rand.New(rand.NewSource(4402)), SnowflakeConfig{
			FactRows: 2500, FactFeats: 3,
			Nodes: []SnowNode{
				{Rows: 150, Feats: 0, Parent: -1}, {Rows: 12, Feats: 5, Parent: 0},
				{Rows: 40, Feats: 2, Parent: -1}, {Rows: 1, Feats: 3, Parent: 2},
			},
			Task: ClassificationTask, Noise: 0.05, Signal: 2,
		})), "928200080ddd9d0bae434ba0456de373c2eea82dd38226b9d3e189ad2f6bffe0"},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, c.got, c.want)
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
