package paramserver

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"dmml/internal/opt"
	"dmml/internal/workload"
)

// Satellite regression: a push must fire one emulated RPC per shard that
// receives a non-zero slice — a sparse gradient touching one shard costs one
// RPC, and an all-zero gradient costs none.
func TestSparsePushSkipsZeroShards(t *testing.T) {
	ps, err := NewServer(8, 4, 0) // 4 shards of 2 dims each
	if err != nil {
		t.Fatal(err)
	}
	sparse := make([]float64, 8)
	sparse[1] = 3 // only shard 0 (dims 0–1) is non-zero
	if err := ps.Push(sparse, 1); err != nil {
		t.Fatal(err)
	}
	if st := ps.Stats(); st.ShardRPCs != 1 {
		t.Fatalf("sparse push fired %d shard RPCs, want exactly 1", st.ShardRPCs)
	}
	if err := ps.Push(make([]float64, 8), 1); err != nil {
		t.Fatal(err)
	}
	st := ps.Stats()
	if st.ShardRPCs != 1 {
		t.Fatalf("all-zero push fired %d extra RPCs, want 0", st.ShardRPCs-1)
	}
	if st.Pushes != 2 {
		t.Fatalf("pushes = %d, want 2 (zero pushes still count as ops)", st.Pushes)
	}
	w, err := ps.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if w[1] != 3 {
		t.Fatalf("w[1] = %v, want 3", w[1])
	}
	if st := ps.Stats(); st.ShardRPCs != 5 {
		t.Fatalf("pull must still visit all 4 shards: rpcs = %d, want 5", st.ShardRPCs)
	}
}

// Transient request loss must be absorbed by retry/backoff: the op succeeds,
// retries are counted, and the result is exactly one application.
func TestRetryRecoversFromTransientFailures(t *testing.T) {
	ps, _ := NewServer(6, 3, 0)
	ps.SetFaults(&FaultConfig{FailProb: 0.4, Seed: 7})
	ps.SetRetryPolicy(RetryPolicy{MaxRetries: 20, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})
	one := []float64{1, 1, 1, 1, 1, 1}
	for i := 0; i < 50; i++ {
		if err := ps.Push(one, 1); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	ps.SetFaults(nil)
	w, err := ps.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range w {
		if v != 50 {
			t.Fatalf("w[%d] = %v, want 50 (lost or duplicated update under retry)", i, v)
		}
	}
	if st := ps.Stats(); st.Retries == 0 {
		t.Fatal("expected retries under FailProb=0.4")
	}
}

// Ack loss is the uncertain-push case: the shard applied the update but the
// client saw a failure. The replay must be idempotent — sequence-tagged
// pushes are deduplicated shard-side, untagged pushes client-side.
func TestIdempotentReplayUnderAckLoss(t *testing.T) {
	for name, push := range map[string]func(ps *Server, delta []float64) error{
		"tagged": func(ps *Server, delta []float64) error {
			return ps.pushFrom(0, 1, delta, 1)
		},
		"untagged": func(ps *Server, delta []float64) error {
			return ps.Push(delta, 1)
		},
	} {
		ps, _ := NewServer(4, 2, 0)
		ps.SetFaults(&FaultConfig{AckLossProb: 0.7, Seed: 11})
		ps.SetRetryPolicy(RetryPolicy{MaxRetries: 64, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})
		if err := push(ps, []float64{1, 2, 3, 4}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps.SetFaults(nil)
		w, err := ps.Pull()
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{1, 2, 3, 4}
		for i := range w {
			if w[i] != want[i] {
				t.Fatalf("%s: w = %v, want exactly one application %v (ack-lost replay double-applied)", name, w, want)
			}
		}
		if st := ps.Stats(); st.Retries == 0 {
			t.Fatalf("%s: expected ack-loss retries", name)
		}
	}
}

// A permanently failing shard must hit the per-op deadline, count a timeout,
// and surface ErrOpDeadline.
func TestOpDeadlineExceeded(t *testing.T) {
	ps, _ := NewServer(4, 2, 0)
	ps.SetFaults(&FaultConfig{FailProb: 1, Seed: 3})
	ps.SetRetryPolicy(RetryPolicy{
		MaxRetries: 1 << 20, BaseBackoff: 200 * time.Microsecond,
		MaxBackoff: time.Millisecond, Deadline: 5 * time.Millisecond,
	})
	_, err := ps.Pull()
	if !errors.Is(err, ErrOpDeadline) {
		t.Fatalf("err = %v, want ErrOpDeadline", err)
	}
	if st := ps.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// Exhausted retries (without a deadline) must surface ErrRPCFailed.
func TestRetriesExhausted(t *testing.T) {
	ps, _ := NewServer(4, 2, 0)
	ps.SetFaults(&FaultConfig{FailProb: 1, Seed: 3})
	ps.SetRetryPolicy(RetryPolicy{MaxRetries: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	err := ps.Push([]float64{1, 1, 1, 1}, 1)
	if !errors.Is(err, ErrRPCFailed) {
		t.Fatalf("err = %v, want ErrRPCFailed", err)
	}
	if st := ps.Stats(); st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

func faultTrainSetup(t *testing.T, seed int64, n int) (opt.DenseRows, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	x, y, _ := workload.Classification(r, n, 8, 0.02)
	return opt.DenseRows{M: x}, y
}

// Satellite regression: an unrecoverable first-tick failure must cancel the
// whole run promptly instead of letting healthy workers train full epochs
// against a doomed model. Work done is the discriminator: without
// cancellation the three healthy workers would push about 3/4 of the
// baseline's updates, with it they stop at the next tick.
func TestFirstErrorCancellationAbortsPromptly(t *testing.T) {
	data, y := faultTrainSetup(t, 201, 2000)
	base := TrainConfig{
		Workers: 4, Epochs: 8, BatchSize: 16, Step: 0.5, Decay: 0.5,
		Mode: BSP, Seed: 5,
	}
	run := func(cfg TrainConfig) (int64, error) {
		ps, _ := NewServer(8, 4, 50*time.Microsecond)
		_, err := Train(ps, data, y, opt.Logistic{}, cfg)
		return ps.Stats().Pushes, err
	}
	baseline, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	killed := base
	killed.Faults = &FaultConfig{KillAtTick: map[int]int{2: 0}, Seed: 5}
	// MaxWorkerRestarts = 0: the tick-0 kill is fatal and must cancel the run.
	cancelled, err := run(killed)
	if err == nil || !errors.Is(err, errKilled) {
		t.Fatalf("err = %v, want the worker-killed error", err)
	}
	if cancelled > baseline/4 {
		t.Fatalf("cancelled run pushed %d updates vs %d baseline; first-error cancellation did not propagate", cancelled, baseline)
	}
}

// A killed worker must be restarted from the shared clock: the run completes
// (no SSP deadlock), records the recovery, and still converges.
func TestKillAndRecoverInRun(t *testing.T) {
	data, y := faultTrainSetup(t, 202, 3000)
	for _, mode := range []Mode{BSP, SSP, Async} {
		ps, _ := NewServer(8, 4, 0)
		res, err := Train(ps, data, y, opt.Logistic{}, TrainConfig{
			Workers: 4, Epochs: 6, BatchSize: 32, Step: 0.5, Decay: 0.5,
			Mode: mode, Staleness: 2, Seed: 6,
			Faults:            &FaultConfig{KillAtTick: map[int]int{1: 4}, Seed: 21},
			MaxWorkerRestarts: 2,
			Checkpoint:        CheckpointConfig{Path: filepath.Join(t.TempDir(), "model.ck"), Every: 16},
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Recoveries != 1 {
			t.Fatalf("mode %v: recoveries = %d, want 1", mode, res.Recoveries)
		}
		if res.FinalLoss > 0.25 {
			t.Fatalf("mode %v: final loss %v after recovery", mode, res.FinalLoss)
		}
	}
}

// Acceptance criterion: with per-op failure probability 0.05 and one
// kill-at-tick crash injected, every mode completes via retry + restart and
// lands within 5% of the fault-free final loss; fault counters are reported.
func TestFaultyTrainingWithin5PctOfFaultFree(t *testing.T) {
	data, y := faultTrainSetup(t, 203, 3000)
	for _, mode := range []Mode{BSP, SSP, Async} {
		run := func(faults *FaultConfig, restarts int, ckPath string) *Result {
			t.Helper()
			ps, _ := NewServer(8, 4, 0)
			cfg := TrainConfig{
				Workers: 4, Epochs: 8, BatchSize: 32, Step: 0.5, Decay: 0.5,
				Mode: mode, Staleness: 2, Seed: 7,
				Faults: faults, MaxWorkerRestarts: restarts,
			}
			if ckPath != "" {
				cfg.Checkpoint = CheckpointConfig{Path: ckPath, Every: 32}
			}
			res, err := Train(ps, data, y, opt.Logistic{}, cfg)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			return res
		}
		baseline := run(nil, 0, "")
		faulty := run(&FaultConfig{
			FailProb:   0.05,
			Jitter:     5 * time.Microsecond,
			KillAtTick: map[int]int{2: 9},
			Seed:       31,
		}, 2, filepath.Join(t.TempDir(), "model.ck"))
		if faulty.Retries == 0 {
			t.Fatalf("mode %v: no retries recorded under FailProb=0.05", mode)
		}
		if faulty.Recoveries < 1 {
			t.Fatalf("mode %v: no recovery recorded for the injected kill", mode)
		}
		if delta := math.Abs(faulty.FinalLoss - baseline.FinalLoss); delta > 0.05*baseline.FinalLoss {
			t.Fatalf("mode %v: faulty loss %v vs fault-free %v (delta %v > 5%%)",
				mode, faulty.FinalLoss, baseline.FinalLoss, delta)
		}
	}
}

// SSP invariant property: the observed clock skew when a worker enters a
// tick never exceeds the staleness bound — with and without fault injection
// (including a kill + clock re-entry, which must not let anyone run ahead).
func TestSSPSkewInvariant(t *testing.T) {
	data, y := faultTrainSetup(t, 204, 1500)
	faultSets := []*FaultConfig{
		nil,
		{FailProb: 0.1, Jitter: 10 * time.Microsecond, Seed: 41},
		{FailProb: 0.05, KillAtTick: map[int]int{1: 3}, Seed: 42},
	}
	for _, staleness := range []int{0, 1, 3} {
		for fi, faults := range faultSets {
			ps, _ := NewServer(8, 2, 0)
			res, err := Train(ps, data, y, opt.Logistic{}, TrainConfig{
				Workers: 4, Epochs: 3, BatchSize: 16, Step: 0.5, Decay: 0.5,
				Mode: SSP, Staleness: staleness, Seed: int64(8 + fi),
				Faults: faults, MaxWorkerRestarts: 3,
			})
			if err != nil {
				t.Fatalf("staleness %d faults %d: %v", staleness, fi, err)
			}
			if res.MaxClockSkew > staleness {
				t.Fatalf("staleness %d faults %d: observed skew %d exceeds the bound",
					staleness, fi, res.MaxClockSkew)
			}
		}
	}
}

// Checkpoint/restore round trip: a run that dies (kill with no restarts
// allowed) leaves a usable checkpoint behind; a fresh server restored from
// it resumes at the recorded clock and converges.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	data, y := faultTrainSetup(t, 205, 3000)
	ckPath := filepath.Join(t.TempDir(), "model.ck")
	cfg := TrainConfig{
		Workers: 4, Epochs: 6, BatchSize: 32, Step: 0.5, Decay: 0.5,
		Mode: SSP, Staleness: 2, Seed: 9,
		Checkpoint: CheckpointConfig{Path: ckPath, Every: 16},
	}
	// Run 1: crash worker 3 mid-run with restarts disabled — the run aborts,
	// but the periodic checkpoint survives.
	ps1, _ := NewServer(8, 4, 0)
	crash := cfg
	crash.Faults = &FaultConfig{KillAtTick: map[int]int{3: 20}, Seed: 51}
	if _, err := Train(ps1, data, y, opt.Logistic{}, crash); !errors.Is(err, errKilled) {
		t.Fatalf("err = %v, want the worker-killed error", err)
	}
	clock, w, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("no usable checkpoint after crash: %v", err)
	}
	if clock < 16 || len(w) != 8 {
		t.Fatalf("checkpoint clock=%d dim=%d, want clock ≥ 16, dim 8", clock, len(w))
	}
	// Run 2: restore into a fresh server and finish training.
	ps2, _ := NewServer(8, 4, 0)
	restored, err := ps2.RestoreFromCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if restored != clock {
		t.Fatalf("restored clock %d != checkpoint clock %d", restored, clock)
	}
	got, err := ps2.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("restored weights differ at %d: %v != %v", i, got[i], w[i])
		}
	}
	res, err := Train(ps2, data, y, opt.Logistic{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss > 0.25 {
		t.Fatalf("restored run did not converge: loss %v", res.FinalLoss)
	}
}

// A killed worker with recovery disabled must not deadlock the BSP barrier:
// cancellation wakes the peers blocked in waitTurn.
func TestKillWithoutRecoveryDoesNotDeadlock(t *testing.T) {
	data, y := faultTrainSetup(t, 206, 1000)
	done := make(chan error, 1)
	go func() {
		ps, _ := NewServer(8, 2, 0)
		_, err := Train(ps, data, y, opt.Logistic{}, TrainConfig{
			Workers: 4, Epochs: 4, BatchSize: 16, Step: 0.5, Mode: BSP, Seed: 10,
			Faults: &FaultConfig{KillAtTick: map[int]int{0: 2}, Seed: 61},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errKilled) {
			t.Fatalf("err = %v, want the worker-killed error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked on the SSP barrier after an unrecovered kill")
	}
}
