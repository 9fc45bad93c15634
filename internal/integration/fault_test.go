package integration

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmml/internal/dml"
	"dmml/internal/la"
	"dmml/internal/ooc"
	"dmml/internal/opt"
	"dmml/internal/storage"
)

// failKthRead makes the k-th spill read of bp fail with injected (k = 0: none
// fails) and returns the count of reads attempted.
func failKthRead(bp *storage.BufferPool, k int64, injected error) *atomic.Int64 {
	var n atomic.Int64
	bp.SetFailureHooks(func(storage.PageID) error {
		if n.Add(1) == k {
			return injected
		}
		return nil
	}, nil)
	return &n
}

// goroutinesAfter returns runtime.NumGoroutine once it is at most want,
// polling for up to ten seconds. A joined goroutine has signalled its
// WaitGroup but may not have returned yet, so the count can briefly exceed
// want after a clean exit; a leaked goroutine keeps it there.
func goroutinesAfter(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 10000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goroutineBaseline is the least goroutine count seen over twenty
// millisecond polls, so a goroutine still exiting from earlier work is not
// counted.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// TestSpillReadFaultSweep fails each spill read in turn, k = 1..N, under
// every fallible pass over an out-of-core matrix: streaming SGD with and
// without prefetch, the MatVec/VecMat products over raw blocks (E11's pass),
// and each DML operator that streams. Each run returns an error that is the
// injected one, and leaves nothing behind: Drop succeeds (no page stays
// pinned), the spill directory empties, and the goroutine count returns to
// where it was.
func TestSpillReadFaultSweep(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const rows, cols = 480, 4
	src := la.NewDense(rows, cols)
	y := make([]float64, rows)
	x := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols-1; j++ {
			src.Set(i, j, float64(r.Intn(4+j)))
		}
		src.Set(i, cols-1, r.NormFloat64())
		y[i] = float64(2*r.Intn(2) - 1)
		x[i] = r.NormFloat64()
	}
	v := []float64{0.5, -1, 2, 0.25}
	sgd := func(m *ooc.Matrix) error {
		_, err := opt.StreamingSGD(m, y, opt.Logistic{}, opt.StreamConfig{Step: 0.1, Epochs: 2})
		return err
	}
	matVec := func(m *ooc.Matrix) error { return m.MatVec(make([]float64, rows), v) }
	vecMat := func(m *ooc.Matrix) error { return m.VecMat(make([]float64, cols), x) }
	vm, err := la.NewDenseData(cols, 1, v)
	if err != nil {
		t.Fatal(err)
	}
	ym, err := la.NewDenseData(rows, 1, y)
	if err != nil {
		t.Fatal(err)
	}
	script := func(src string) func(*ooc.Matrix) error {
		return func(m *ooc.Matrix) error {
			p, err := dml.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = p.Run(dml.Env{"X": dml.OOC(m), "v": dml.Matrix(vm), "y": dml.Matrix(ym)})
			return err
		}
	}
	injected := errors.New("disk on fire")
	for _, c := range []struct {
		name       string
		noCompress bool
		prefetch   bool
		run        func(*ooc.Matrix) error
	}{
		{"StreamingSGD", false, false, sgd},
		{"StreamingSGD+prefetch", false, true, sgd},
		{"MatVec raw", true, false, matVec},
		{"MatVec raw+prefetch", true, true, matVec},
		{"VecMat raw+prefetch", true, true, vecMat},
		{"dml sum", false, true, script("sum(X)")},
		{"dml mean", false, true, script("mean(X)")},
		{"dml colSums", false, true, script("colSums(X)")},
		{"dml X %*% v", false, true, script("X %*% v")},
		{"dml t(X) %*% y", false, true, script("t(X) %*% y")},
		{"dml t(X) %*% X", false, true, script("t(X) %*% X")},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Eight 60-row blocks through a pool that holds about three raw
			// ones, so every pass rereads spilled blocks.
			build := func() (*ooc.Matrix, *storage.BufferPool, string) {
				dir := t.TempDir()
				bp, err := storage.NewBufferPoolBytes(6*1024, dir)
				if err != nil {
					t.Fatal(err)
				}
				m, err := ooc.FromDense(bp, src, ooc.Options{BlockRows: 60, NoCompress: c.noCompress, Prefetch: c.prefetch})
				if err != nil {
					t.Fatal(err)
				}
				return m, bp, dir
			}
			m, bp, _ := build()
			reads := failKthRead(bp, 0, nil)
			if err := c.run(m); err != nil {
				t.Fatal(err)
			}
			total := reads.Load()
			if total < 2 {
				t.Fatalf("a clean pass read %d spilled blocks; the sweep is vacuous", total)
			}
			goroutines := goroutineBaseline()
			for k := int64(1); k <= total; k++ {
				m, bp, dir := build()
				failKthRead(bp, k, injected)
				if err := c.run(m); !errors.Is(err, injected) {
					t.Fatalf("read %d of %d failing: err = %v, want the injected failure", k, total, err)
				}
				if n := goroutinesAfter(goroutines); n > goroutines {
					t.Fatalf("read %d of %d failing: %d goroutines, want %d", k, total, n, goroutines)
				}
				if err := m.Drop(); err != nil {
					t.Fatalf("read %d of %d failing: Drop: %v", k, total, err)
				}
				if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
					t.Fatalf("read %d of %d failing: spill files left: %v, %v", k, total, left, err)
				}
			}
		})
	}
}

// failKthWrite makes the k-th spill write of bp fail with injected (k = 0:
// none fails) and returns the count of writes attempted.
func failKthWrite(bp *storage.BufferPool, k int64, injected error) *atomic.Int64 {
	var n atomic.Int64
	bp.SetFailureHooks(nil, func(storage.PageID) error {
		if n.Add(1) == k {
			return injected
		}
		return nil
	})
	return &n
}

// TestSpillWriteFaultSweep fails each spill write in turn, k = 1..N, under
// every path that writes pages: FromDense into a pool smaller than the
// matrix (dirty blocks spill as later ones evict them), FromDense into a
// pool that holds it (every write is Finish's flush), and ReadCSV into the
// small pool. Each run returns an error that is the injected one, and
// leaves nothing behind: no resident bytes, no spill file, no goroutine.
func TestSpillWriteFaultSweep(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	const rows, cols = 480, 4
	src := la.NewDense(rows, cols)
	var csv strings.Builder
	for i := 0; i < rows; i++ {
		for j := 0; j < cols-1; j++ {
			src.Set(i, j, float64(r.Intn(4+j)))
		}
		src.Set(i, cols-1, r.NormFloat64())
		row := src.RowView(i)
		fmt.Fprintf(&csv, "%v,%v,%v,%v\n", row[0], row[1], row[2], row[3])
	}
	fromDense := func(opts ooc.Options) func(*storage.BufferPool) error {
		return func(bp *storage.BufferPool) error {
			_, err := ooc.FromDense(bp, src, opts)
			return err
		}
	}
	readCSV := func(bp *storage.BufferPool) error {
		_, err := ooc.ReadCSV(bp, strings.NewReader(csv.String()), ooc.Options{BlockRows: 60, NoCompress: true})
		return err
	}
	injected := errors.New("disk full")
	for _, c := range []struct {
		name   string
		budget int64
		evicts bool // whether a clean build evicts, or only Finish writes
		build  func(*storage.BufferPool) error
	}{
		// Eight 60-row raw blocks of 1920 bytes through a pool of three.
		{"FromDense evicting raw", 6 * 1024, true, fromDense(ooc.Options{BlockRows: 60, NoCompress: true})},
		{"FromDense evicting compressed", 2 * 1024, true, fromDense(ooc.Options{BlockRows: 60})},
		{"FromDense flush", 1 << 20, false, fromDense(ooc.Options{BlockRows: 60})},
		{"ReadCSV evicting", 6 * 1024, true, readCSV},
	} {
		t.Run(c.name, func(t *testing.T) {
			pool := func() (*storage.BufferPool, string) {
				dir := t.TempDir()
				bp, err := storage.NewBufferPoolBytes(c.budget, dir)
				if err != nil {
					t.Fatal(err)
				}
				return bp, dir
			}
			bp, _ := pool()
			writes := failKthWrite(bp, 0, nil)
			if err := c.build(bp); err != nil {
				t.Fatal(err)
			}
			total := writes.Load()
			if total < 2 {
				t.Fatalf("a clean build wrote %d pages; the sweep is vacuous", total)
			}
			if evicted := bp.Stats().Evictions > 0; evicted != c.evicts {
				t.Fatalf("a clean build evicted %d pages; want evictions: %v", bp.Stats().Evictions, c.evicts)
			}
			goroutines := goroutineBaseline()
			for k := int64(1); k <= total; k++ {
				bp, dir := pool()
				failKthWrite(bp, k, injected)
				if err := c.build(bp); !errors.Is(err, injected) {
					t.Fatalf("write %d of %d failing: err = %v, want the injected failure", k, total, err)
				}
				if n := goroutinesAfter(goroutines); n > goroutines {
					t.Fatalf("write %d of %d failing: %d goroutines, want %d", k, total, n, goroutines)
				}
				if got := bp.ResidentBytes(); got != 0 {
					t.Fatalf("write %d of %d failing: %d resident bytes left", k, total, got)
				}
				if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
					t.Fatalf("write %d of %d failing: spill files left: %v, %v", k, total, left, err)
				}
			}
		})
	}
}
