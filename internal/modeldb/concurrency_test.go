package modeldb

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestConcurrentLogAndRead is the regression test for the unsynchronized
// Store: concurrent Log vs Latest/Best/Query/Lineage/Save was
// a data race on runs/byID/byName. It hammers every read path while
// writers append; run under -race via RACE_PKGS.
func TestConcurrentLogAndRead(t *testing.T) {
	s := NewStore()
	seed, err := s.Log(Spec{
		Name:     "served",
		Config:   map[string]float64{"bias": 0.5},
		Metrics:  map[string]float64{"auc": 0.9},
		Weights:  []float64{1, 2, 3},
		ParentID: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, perG = 4, 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				_, err := s.Log(Spec{
					Name:     fmt.Sprintf("served-%d", w%2),
					Metrics:  map[string]float64{"auc": float64(i)},
					Weights:  []float64{float64(i)},
					ParentID: seed.ID,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				switch r % 6 {
				case 0:
					if _, err := get(s, seed.ID); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.Latest("served"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					s.Query(func(r Run) bool { return r.Name == "served-0" })
				case 3:
					_, _ = s.Best("served-1", "auc", true)
				case 4:
					s.Query(func(r Run) bool { return len(r.Weights) > 0 })
					if _, err := s.Lineage(seed.ID); err != nil {
						t.Error(err)
						return
					}
				case 5:
					if err := s.Save(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	if got, want := s.NumRuns(), 1+writers*perG; got != want {
		t.Fatalf("NumRuns = %d, want %d", got, want)
	}
}

// TestReadPathsDeepCopy proves that mutating a Run returned by any read
// path leaves the store bit-identical: returned Weights/Transforms/Tags
// slices and Config/Metrics maps must not alias registry internals.
func TestReadPathsDeepCopy(t *testing.T) {
	s := NewStore()
	logged, err := s.Log(Spec{
		Name:        "m",
		DatasetHash: "abc",
		Transforms:  []string{"scale", "impute"},
		Config:      map[string]float64{"step": 0.1},
		Metrics:     map[string]float64{"auc": 0.9},
		Weights:     []float64{1, 2, 3},
		ParentID:    -1,
		Tags:        []string{"prod"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}

	vandalize := func(r Run) {
		for i := range r.Weights {
			r.Weights[i] = -99
		}
		for i := range r.Transforms {
			r.Transforms[i] = "corrupted"
		}
		for i := range r.Tags {
			r.Tags[i] = "corrupted"
		}
		for k := range r.Config {
			r.Config[k] = -99
		}
		for k := range r.Metrics {
			r.Metrics[k] = -99
		}
	}

	vandalize(logged)
	if r, err := get(s, logged.ID); err != nil {
		t.Fatal(err)
	} else {
		vandalize(r)
	}
	if r, err := s.Latest("m"); err != nil {
		t.Fatal(err)
	} else {
		vandalize(r)
	}
	if r, err := s.Best("m", "auc", true); err != nil {
		t.Fatal(err)
	} else {
		vandalize(r)
	}
	for _, r := range s.Query(func(Run) bool { return true }) {
		vandalize(r)
	}
	if rs, err := s.Lineage(logged.ID); err != nil {
		t.Fatal(err)
	} else {
		for _, r := range rs {
			vandalize(r)
		}
	}

	var after bytes.Buffer
	if err := s.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("store changed after mutating returned runs:\nbefore: %s\nafter:  %s",
			before.String(), after.String())
	}
	// And the logged spec's slices must not feed back either (Spec isolation
	// existed before; re-check alongside the read-path guarantee).
	got, err := get(s, logged.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weights[0] != 1 || got.Config["step"] != 0.1 || got.Transforms[0] != "scale" {
		t.Fatalf("registry contents corrupted: %+v", got)
	}
}
