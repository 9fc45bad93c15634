package modeldb

import (
	"bytes"
	"testing"

	"dmml/internal/la"
)

func TestLogAndVersioning(t *testing.T) {
	s := NewStore()
	r1, err := s.Log(Spec{Name: "churn", Config: map[string]float64{"step": 0.1}, ParentID: -1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Log(Spec{Name: "churn", Config: map[string]float64{"step": 0.5}, ParentID: r1.ID})
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Log(Spec{Name: "fraud", ParentID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version != 1 || r2.Version != 2 || other.Version != 1 {
		t.Fatalf("versions: %d %d %d", r1.Version, r2.Version, other.Version)
	}
	latest, err := s.Latest("churn")
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID != r2.ID {
		t.Fatalf("latest = %d", latest.ID)
	}
	if got := s.Query(func(r Run) bool { return r.Name == "churn" }); len(got) != 2 {
		t.Fatalf("versions = %d", len(got))
	}
	if s.NumRuns() != 3 {
		t.Fatalf("runs = %d", s.NumRuns())
	}
}

func TestLogValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Log(Spec{ParentID: -1}); err == nil {
		t.Fatal("want name error")
	}
	if _, err := s.Log(Spec{Name: "x", ParentID: 99}); err == nil {
		t.Fatal("want missing parent error")
	}
	if _, err := s.Latest("nope"); err == nil {
		t.Fatal("want no-runs error")
	}
	if _, err := get(s, 42); err == nil {
		t.Fatal("want not-found error")
	}
}

func TestBestAndQuery(t *testing.T) {
	s := NewStore()
	for i, acc := range []float64{0.8, 0.95, 0.9} {
		if _, err := s.Log(Spec{
			Name:     "m",
			Metrics:  map[string]float64{"acc": acc, "loss": 1 - acc},
			Config:   map[string]float64{"idx": float64(i)},
			ParentID: -1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	best, err := s.Best("m", "acc", true)
	if err != nil {
		t.Fatal(err)
	}
	if best.Metrics["acc"] != 0.95 {
		t.Fatalf("best acc = %v", best.Metrics["acc"])
	}
	worstLoss, err := s.Best("m", "loss", false)
	if err != nil {
		t.Fatal(err)
	}
	if worstLoss.Metrics["acc"] != 0.95 {
		t.Fatalf("min-loss run acc = %v", worstLoss.Metrics["acc"])
	}
	if _, err := s.Best("m", "f1", true); err == nil {
		t.Fatal("want missing metric error")
	}
	good := s.Query(func(r Run) bool { return r.Metrics["acc"] >= 0.9 })
	if len(good) != 2 {
		t.Fatalf("query = %d runs", len(good))
	}
}

func TestLineage(t *testing.T) {
	s := NewStore()
	a, _ := s.Log(Spec{Name: "m", ParentID: -1})
	b, _ := s.Log(Spec{Name: "m", ParentID: a.ID})
	c, _ := s.Log(Spec{Name: "m", ParentID: b.ID})
	chain, err := s.Lineage(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0].ID != c.ID || chain[2].ID != a.ID {
		t.Fatalf("lineage = %+v", chain)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	a, _ := s.Log(Spec{Name: "m", Config: map[string]float64{"step": 0.1},
		Metrics: map[string]float64{"acc": 0.9}, Weights: []float64{1, 2, 3},
		Transforms: []string{"standardize"}, Tags: []string{"prod"}, ParentID: -1})
	_, _ = s.Log(Spec{Name: "m", ParentID: a.ID})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRuns() != 2 {
		t.Fatalf("loaded runs = %d", loaded.NumRuns())
	}
	got, err := get(loaded, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights[2] != 3 || got.Transforms[0] != "standardize" || got.Tags[0] != "prod" {
		t.Fatalf("loaded run = %+v", got)
	}
	// New logs continue the ID sequence.
	next, err := loaded.Log(Spec{Name: "m", ParentID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != 3 || next.Version != 3 {
		t.Fatalf("next run = %+v", next)
	}
	// Corrupt input fails cleanly.
	if _, err := Load(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("want decode error")
	}
}

func TestDatasetHash(t *testing.T) {
	x, _ := la.FromRows([][]float64{{1, 2}, {3, 4}})
	y := []float64{1, -1}
	h1 := DatasetHash(x, y)
	h2 := DatasetHash(x.Clone(), append([]float64(nil), y...))
	if h1 != h2 {
		t.Fatal("equal data must hash equally")
	}
	x2 := x.Clone()
	x2.Set(0, 0, 1.0000001)
	if DatasetHash(x2, y) == h1 {
		t.Fatal("changed data must change the hash")
	}
	y2 := []float64{1, 1}
	if DatasetHash(x, y2) == h1 {
		t.Fatal("changed labels must change the hash")
	}
}

func TestSpecIsolation(t *testing.T) {
	// Mutating the spec after logging must not affect the stored run.
	s := NewStore()
	cfg := map[string]float64{"step": 0.1}
	r, _ := s.Log(Spec{Name: "m", Config: cfg, ParentID: -1})
	cfg["step"] = 99
	got, _ := get(s, r.ID)
	if got.Config["step"] != 0.1 {
		t.Fatal("store aliases caller's config map")
	}
}

// get reads one run back: a run is the first entry of its own lineage.
func get(s *Store, id int) (Run, error) {
	rs, err := s.Lineage(id)
	if err != nil {
		return Run{}, err
	}
	return rs[0], nil
}
