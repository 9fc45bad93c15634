package paramserver

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrRPCFailed marks an emulated shard RPC that exhausted its retry budget.
var ErrRPCFailed = errors.New("paramserver: rpc failed")

// ErrOpDeadline marks a shard operation that exceeded RetryPolicy.Deadline
// across retries.
var ErrOpDeadline = errors.New("paramserver: op deadline exceeded")

// errKilled is the injected worker crash; Train's supervisor catches it and
// restarts the worker from the shared clock (up to MaxWorkerRestarts).
var errKilled = errors.New("paramserver: worker killed")

// errAborted signals first-error cancellation: another worker failed and the
// run is shutting down; the worker exits without recording an error.
var errAborted = errors.New("paramserver: run aborted")

// FaultConfig is the injectable fault model for the shard RPC path. The zero
// value injects nothing; all draws come from a private RNG seeded with Seed,
// so a faulty run is reproducible.
type FaultConfig struct {
	// FailProb is the per-RPC probability that the call fails before the
	// shard applies anything (a lost request).
	FailProb float64
	// ackLossProb is the per-RPC probability that the shard applies the
	// operation but the acknowledgement is lost, so the client sees a
	// failure and retries. Replaying a sequence-tagged push after ack loss
	// must not double-apply — the shard-side dedup table guarantees that.
	ackLossProb float64
	// Jitter adds uniform extra latency in [0, Jitter) to every RPC.
	Jitter time.Duration
	// KillAtTick maps a worker id to the local tick at which the worker
	// crashes (once per server): its goroutine dies mid-epoch, losing all
	// local state. Without recovery this deadlocks the SSP barrier.
	KillAtTick map[int]int
	// Seed seeds the injector's RNG.
	Seed int64
}

// faultInjector draws fault decisions for the server; it is shared by all
// workers, so its RNG is mutex-protected.
type faultInjector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cfg   FaultConfig
	fired map[int]bool // worker kills that already happened
}

func newFaultInjector(cfg FaultConfig) *faultInjector {
	// Copy the kill map so later caller mutation cannot race the workers.
	kills := make(map[int]int, len(cfg.KillAtTick))
	for w, t := range cfg.KillAtTick {
		kills[w] = t
	}
	cfg.KillAtTick = kills
	return &faultInjector{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		fired: make(map[int]bool),
	}
}

// rpcFault decides the fate of one shard RPC: lost request, lost ack, and
// how much extra latency to inject.
func (f *faultInjector) rpcFault() (fail, ackLoss bool, jitter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.Jitter > 0 {
		jitter = time.Duration(f.rng.Int63n(int64(f.cfg.Jitter)))
	}
	r := f.rng.Float64()
	switch {
	case f.cfg.FailProb > 0 && r < f.cfg.FailProb:
		fail = true
	case f.cfg.ackLossProb > 0 && r < f.cfg.FailProb+f.cfg.ackLossProb:
		ackLoss = true
	}
	return fail, ackLoss, jitter
}

// shouldKill reports whether worker must crash at local tick (fires at most
// once per worker per server, so a restarted worker is not re-killed).
func (f *faultInjector) shouldKill(worker, tick int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	at, ok := f.cfg.KillAtTick[worker]
	if !ok || f.fired[worker] || tick < at {
		return false
	}
	f.fired[worker] = true
	return true
}

// RetryPolicy bounds the client-side retry loop around every shard RPC:
// up to MaxRetries retries after the first attempt, sleeping an
// exponentially growing backoff (BaseBackoff doubling up to MaxBackoff)
// between attempts, all under a per-operation Deadline. The zero value
// disables retries entirely; every Server runs under DefaultRetryPolicy.
type RetryPolicy struct {
	MaxRetries  int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Deadline    time.Duration // 0 = no deadline
}

// DefaultRetryPolicy survives transient fault injection (FailProb ≲ 0.3)
// with negligible added latency on the fault-free path.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  8,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		Deadline:    2 * time.Second,
	}
}
