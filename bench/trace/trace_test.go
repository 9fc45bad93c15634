package trace

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	r := New()
	l := r.Lane()
	at := func(ns int64) time.Time { return r.t0.Add(time.Duration(ns)) }
	root := l.Add("root", -1, 1, at(0), at(100))
	l.Add("kid", root, 1, at(10), at(30))
	l.Add("kid", root, 1, at(20), at(50))  // overlaps the first: the union covers [10,50)
	l.Add("kid", root, 1, at(90), at(120)) // runs past its parent: only [90,100) counts
	grand := l.Add("kid", root, 1, at(60), at(70))
	l.Add("grandkid", grand, 1, at(62), at(66))
	st := r.Stats()
	if got := st["root"].SelfNs; got != 100-40-10-10 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := st["kid"]; got.Count != 4 || got.TotalNs != 20+30+30+10 || got.SelfNs != 20+30+30+10-4 {
		t.Errorf("kid = %+v", got)
	}
	if sum := r.Summary(); sum[0].Name != "kid" {
		t.Errorf("summary not sorted by self time: %+v", sum)
	}
}

func TestNilRecorderAndLaneAreNoOps(t *testing.T) {
	var r *Recorder
	l := r.Lane()
	if l != nil {
		t.Fatal("nil recorder returned a lane")
	}
	sp := l.Begin("x", -1, 0)
	l.End(sp)
	l.Add("y", sp, 0, time.Now(), time.Now())
	if r.Summary() != nil || r.WriteJSON(filepath.Join(t.TempDir(), "never")) != nil {
		t.Fatal("nil recorder produced output")
	}
}

func TestBeginEndAndWriteJSON(t *testing.T) {
	r := New()
	l := r.Lane()
	a := l.Begin("outer", -1, 7)
	b := l.Begin("inner", a, 7)
	l.End(b)
	l.End(a)
	other := r.Lane()
	other.End(other.Begin("outer", -1, 8))
	if st := r.Stats()["outer"]; st.Count != 2 || st.SelfNs > st.TotalNs {
		t.Errorf("outer = %+v", st)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("trace file: %v, %d bytes", err, len(data))
	}
}
