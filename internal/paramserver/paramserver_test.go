package paramserver

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dmml/internal/la"
	"dmml/internal/opt"
	"dmml/internal/workload"
)

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(0, 1, Network{}); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := NewServer(4, 8, Network{}); err == nil {
		t.Fatal("want shards > dim error")
	}
	ps, err := NewServer(10, 3, Network{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.shards) != 3 {
		t.Fatalf("shards = %d", len(ps.shards))
	}
	if err := ps.Push(make([]float64, 4), 1); err == nil {
		t.Fatal("want push length error")
	}
}

func TestPullPushRoundTrip(t *testing.T) {
	ps, _ := NewServer(7, 3, Network{})
	delta := []float64{1, 2, 3, 4, 5, 6, 7}
	if err := ps.Push(delta, 2); err != nil {
		t.Fatal(err)
	}
	w, err := ps.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if w[i] != 2*delta[i] {
			t.Fatalf("w[%d] = %v", i, w[i])
		}
	}
	st := ps.Stats()
	if st.Pulls != 1 || st.Pushes != 1 {
		t.Fatalf("stats = %d pulls %d pushes", st.Pulls, st.Pushes)
	}
	if st.Retries != 0 || st.Timeouts != 0 || st.Recoveries != 0 {
		t.Fatalf("fault counters must be zero without injection: %+v", st)
	}
}

func TestConcurrentPushesAllLand(t *testing.T) {
	ps, _ := NewServer(5, 2, Network{})
	const workers = 8
	const pushesPer = 100
	var wg sync.WaitGroup
	one := []float64{1, 1, 1, 1, 1}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < pushesPer; p++ {
				_ = ps.Push(one, 1)
			}
		}()
	}
	wg.Wait()
	w, err := ps.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if w[i] != workers*pushesPer {
			t.Fatalf("w[%d] = %v, want %d (lost updates)", i, w[i], workers*pushesPer)
		}
	}
}

func TestSSPClockOrdering(t *testing.T) {
	c := newSSPClock(2)
	// Worker 0 advances twice with staleness 1 while worker 1 is at 0: the
	// third tick must block until worker 1 advances.
	c.advance(0)
	done := make(chan struct{})
	go func() {
		c.waitTurn(0, 1) // clock[0]=1, min=0, 1-0 ≤ 1 → proceeds
		c.advance(0)     // clock[0]=2
		c.waitTurn(0, 1) // 2-0 > 1 → blocks until worker 1 advances
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("worker 0 ran ahead beyond the staleness bound")
	case <-time.After(50 * time.Millisecond):
	}
	c.advance(1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("worker 0 did not resume after the straggler advanced")
	}
}

func trainSetup(t *testing.T, seed int64) (*la.Dense, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	x, y, _ := workload.Classification(r, 3000, 8, 0.02)
	return x, y
}

func TestTrainAllModesConverge(t *testing.T) {
	x, y := trainSetup(t, 160)
	for _, mode := range []Mode{BSP, SSP, Async} {
		ps, err := NewServer(8, 4, Network{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Train(ps, x, y, opt.Logistic{}, TrainConfig{
			Workers: 4, Epochs: 6, BatchSize: 32, Step: 0.5, Decay: 0.5,
			Mode: mode, Staleness: 2, Seed: 1,
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.FinalLoss > 0.25 {
			t.Fatalf("mode %v: final loss %v", mode, res.FinalLoss)
		}
		if res.Pushes == 0 || res.Pulls == 0 {
			t.Fatalf("mode %v: no traffic recorded", mode)
		}
	}
}

func TestTrainSingleWorkerMatchesLocalSGDShape(t *testing.T) {
	x, y := trainSetup(t, 161)
	ps, _ := NewServer(8, 1, Network{})
	res, err := Train(ps, x, y, opt.Logistic{}, TrainConfig{
		Workers: 1, Epochs: 12, BatchSize: 1, Step: 0.5, Decay: 0.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Single worker, batch 1, no latency: equivalent to sequential SGD up to
	// shuffling; it must converge comparably.
	if res.FinalLoss > 0.25 {
		t.Fatalf("final loss = %v", res.FinalLoss)
	}
}

func TestTrainValidation(t *testing.T) {
	x := la.NewDense(10, 3)
	y := make([]float64, 10)
	ps, _ := NewServer(3, 1, Network{})
	bad := []TrainConfig{
		{Workers: 0, Epochs: 1, BatchSize: 1, Step: 1},
		{Workers: 1, Epochs: 0, BatchSize: 1, Step: 1},
		{Workers: 1, Epochs: 1, BatchSize: 0, Step: 1},
		{Workers: 1, Epochs: 1, BatchSize: 1, Step: 0},
		{Workers: 1, Epochs: 1, BatchSize: 1, Step: 1, Mode: SSP, Staleness: -1},
	}
	for i, cfg := range bad {
		if _, err := Train(ps, x, y, opt.Squared{}, cfg); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	// Dim mismatch.
	ps2, _ := NewServer(5, 1, Network{})
	if _, err := Train(ps2, x, y, opt.Squared{}, TrainConfig{
		Workers: 1, Epochs: 1, BatchSize: 1, Step: 1,
	}); err == nil {
		t.Fatal("want dim mismatch error")
	}
	// Label mismatch.
	if _, err := Train(ps, x, y[:4], opt.Squared{}, TrainConfig{
		Workers: 1, Epochs: 1, BatchSize: 1, Step: 1,
	}); err == nil {
		t.Fatal("want label mismatch error")
	}
}

func TestModeString(t *testing.T) {
	if BSP.String() != "bsp" || SSP.String() != "ssp" || Async.String() != "async" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still format")
	}
}

func TestSSPFinishUnblocksStragglers(t *testing.T) {
	// A finished worker must not hold back others (regression for deadlock).
	x, y := trainSetup(t, 163)
	ps, _ := NewServer(8, 2, Network{})
	// Workers > rows/chunk edge: more workers than useful partitions.
	res, err := Train(ps, x.Slice(0, 5, 0, 8), y[:5], opt.Logistic{}, TrainConfig{
		Workers: 8, Epochs: 2, BatchSize: 2, Step: 0.1, Mode: BSP, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalLoss) {
		t.Fatal("NaN loss")
	}
}

// A straggling worker must force BSP's fast workers to idle at barriers,
// while async workers never block — the parameter-server motivation.
func TestStragglerIdlesBSPNotAsync(t *testing.T) {
	r := rand.New(rand.NewSource(164))
	x, y, _ := workload.Classification(r, 800, 6, 0.02)
	run := func(mode Mode) time.Duration {
		ps, _ := NewServer(6, 2, Network{})
		res, err := Train(ps, x, y, opt.Logistic{}, TrainConfig{
			Workers: 4, Epochs: 2, BatchSize: 25, Step: 0.5, Mode: mode, Seed: 9,
			StragglerDelay: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.WorkerIdle
	}
	bspIdle, asyncIdle := run(BSP), run(Async)
	// Worker 0 adds 2ms x 16 ticks; the three fast BSP workers must absorb
	// most of that as barrier idle time. Async never waits.
	if bspIdle < 30*time.Millisecond {
		t.Fatalf("BSP idle = %v, want ≫ 0 under a straggler", bspIdle)
	}
	if asyncIdle > bspIdle/10 {
		t.Fatalf("async idle = %v vs BSP %v; async should be near zero", asyncIdle, bspIdle)
	}
}

// Push is the unsequenced push the tests drive directly: w += scale·delta
// across shards (one emulated RPC per shard that receives a non-zero slice;
// shards whose delta slice is all zero are skipped entirely). Retries after an ack-lost RPC are applied at most once
// per call; workers inside Train use the sequence-tagged pushFrom, whose
// replay dedup lives on the shard itself.
func (s *Server) Push(delta []float64, scale float64) error {
	return s.push(-1, 0, delta, scale)
}
