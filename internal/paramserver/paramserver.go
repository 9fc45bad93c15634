// Package paramserver simulates a sharded parameter server in-process, the
// distributed-ML substrate the paper surveys: model weights are partitioned
// across shards, workers pull the current model and push gradients, and
// coordination follows the stale-synchronous-parallel (SSP) spectrum —
// staleness 0 is BSP (barrier per clock tick), unbounded staleness is fully
// asynchronous. Each server's emulated network (Network) is fixed at
// construction: per-operation latency emulates round trips so the
// BSP-vs-async throughput shape is observable on a single machine.
//
// The package is fault-tolerant: the network's fault model (FaultConfig) can
// lose requests, lose acknowledgements, jitter latency, and kill workers at
// a deterministic tick. Every shard RPC runs under bounded exponential-
// backoff retry (RetryPolicy); sequence-tagged pushes make ack-loss replay
// idempotent; Train periodically checkpoints the model through
// internal/storage and restarts killed workers from the shared clock so a
// crash neither deadlocks the SSP barrier nor dooms the run.
package paramserver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dmml/internal/la"
	"dmml/internal/opt"
)

// Network is a Server's emulated network model, fixed at construction.
type Network struct {
	// Latency is injected before every shard RPC to emulate a round trip.
	Latency time.Duration
	// Faults, if non-nil, injects RPC request/ack loss, latency jitter, and
	// deterministic worker kills for the server's lifetime. The injector's
	// RNG and fired kills carry over between Train calls, so replaying a
	// faulty run needs a fresh server.
	Faults *FaultConfig
}

// Server is a sharded parameter vector with pull/push access.
type Server struct {
	shards  []*shard
	dim     int
	latency time.Duration
	// retry bounds the client-side retry loop; faults (nil: none) injects
	// failures. Both are read-only after NewServer.
	retry  RetryPolicy
	faults *faultInjector

	pulls      atomic.Int64
	pushes     atomic.Int64
	rpcs       atomic.Int64
	retries    atomic.Int64
	timeouts   atomic.Int64
	recoveries atomic.Int64
}

type shard struct {
	mu sync.Mutex
	lo int // global index of w[0]
	w  []float64
	// lastSeq tracks, per worker, the newest applied push sequence. A
	// sequence-tagged push whose seq is not newer is a duplicate replay of
	// an uncertain (ack-lost) RPC and is skipped — shard-side idempotency.
	lastSeq map[int]uint64
}

// NewServer creates a parameter server for a dim-dimensional model split
// across the given number of shards, behind the emulated network.
func NewServer(dim, shards int, network Network) (*Server, error) {
	if dim < 1 {
		return nil, fmt.Errorf("paramserver: dim must be ≥ 1, got %d", dim)
	}
	if shards < 1 || shards > dim {
		return nil, fmt.Errorf("paramserver: shards=%d out of range for dim=%d", shards, dim)
	}
	s := &Server{dim: dim, latency: network.Latency, retry: DefaultRetryPolicy()}
	if network.Faults != nil {
		s.faults = newFaultInjector(*network.Faults)
	}
	chunk := (dim + shards - 1) / shards
	for lo := 0; lo < dim; lo += chunk {
		hi := min(lo+chunk, dim)
		s.shards = append(s.shards, &shard{lo: lo, w: make([]float64, hi-lo), lastSeq: make(map[int]uint64)})
	}
	return s, nil
}

// Pull gathers the full model (one emulated RPC per shard).
func (s *Server) Pull() ([]float64, error) {
	sw := mPullTimer.Start()
	defer sw.Stop()
	out := make([]float64, s.dim)
	for _, sh := range s.shards {
		sh := sh
		err := s.callShard(func() {
			sh.mu.Lock()
			copy(out[sh.lo:sh.lo+len(sh.w)], sh.w)
			sh.mu.Unlock()
		})
		if err != nil {
			return nil, fmt.Errorf("paramserver: pull: %w", err)
		}
	}
	s.pulls.Add(1)
	return out, nil
}

// pushFrom is a sequence-tagged push: worker identifies the single-threaded
// client and seq must be strictly increasing per worker across the run
// (restarted workers bump an incarnation number in the high bits). Shards
// skip any (worker, seq) at or below their high-water mark, which makes the
// replay of an uncertain push idempotent even though the client cannot know
// whether the lost-ack attempt applied.
func (s *Server) pushFrom(worker int, seq uint64, delta []float64, scale float64) error {
	if worker < 0 {
		return fmt.Errorf("paramserver: pushFrom worker id %d must be ≥ 0", worker)
	}
	return s.push(worker, seq, delta, scale)
}

func (s *Server) push(worker int, seq uint64, delta []float64, scale float64) error {
	if len(delta) != s.dim {
		return fmt.Errorf("paramserver: push length %d, want %d", len(delta), s.dim)
	}
	sw := mPushTimer.Start()
	defer sw.Stop()
	for _, sh := range s.shards {
		part := delta[sh.lo : sh.lo+len(sh.w)]
		if allZero(part) {
			continue
		}
		applied := false
		err := s.callShard(func() {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if worker >= 0 {
				if last, ok := sh.lastSeq[worker]; ok && seq <= last {
					return // duplicate replay of an ack-lost attempt
				}
				sh.lastSeq[worker] = seq
			} else {
				if applied {
					return
				}
				applied = true
			}
			la.Axpy(scale, part, sh.w)
		})
		if err != nil {
			return fmt.Errorf("paramserver: push: %w", err)
		}
	}
	s.pushes.Add(1)
	return nil
}

func allZero(xs []float64) bool {
	for _, v := range xs {
		if v != 0 {
			return false
		}
	}
	return true
}

// callShard runs one logical shard operation through the emulated RPC path:
// latency (plus injected jitter), injected request/ack loss, and bounded
// exponential-backoff retry under the per-op deadline. apply must be
// idempotent — it runs once per delivered attempt, and an ack-lost attempt
// is delivered yet reported failed.
func (s *Server) callShard(apply func()) error {
	var deadline time.Time
	if s.retry.Deadline > 0 {
		deadline = time.Now().Add(s.retry.Deadline)
	}
	backoff := s.retry.BaseBackoff
	for attempt := 0; ; attempt++ {
		s.rpcs.Add(1)
		mRPCs.Inc()
		var fail, ackLoss bool
		var jitter time.Duration
		if s.faults != nil {
			fail, ackLoss, jitter = s.faults.rpcFault()
		}
		if d := s.latency + jitter; d > 0 {
			time.Sleep(d)
		}
		if !fail {
			apply()
			if !ackLoss {
				return nil
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			s.timeouts.Add(1)
			mTimeouts.Inc()
			return fmt.Errorf("%w (%v budget, %d attempts)", ErrOpDeadline, s.retry.Deadline, attempt+1)
		}
		if attempt >= s.retry.MaxRetries {
			return fmt.Errorf("%w (%d attempts)", ErrRPCFailed, attempt+1)
		}
		s.retries.Add(1)
		mRetries.Inc()
		if backoff > 0 {
			time.Sleep(backoff)
		}
		backoff = min(2*backoff, s.retry.MaxBackoff)
	}
}

// Stats is a snapshot of the server's cumulative operation counters.
type Stats struct {
	// Pulls and Pushes count completed logical operations.
	Pulls, Pushes int64
	// ShardRPCs counts emulated per-shard RPC attempts (retries included;
	// shards skipped by the sparse-push fast path are not).
	ShardRPCs int64
	// Retries counts RPC attempts beyond the first for an op; Timeouts
	// counts ops abandoned at the RetryPolicy deadline; Recoveries counts
	// worker restarts after injected kills.
	Retries, Timeouts, Recoveries int64
}

// Stats returns a snapshot of the cumulative counters.
func (s *Server) Stats() Stats {
	return Stats{
		Pulls:      s.pulls.Load(),
		Pushes:     s.pushes.Load(),
		ShardRPCs:  s.rpcs.Load(),
		Retries:    s.retries.Load(),
		Timeouts:   s.timeouts.Load(),
		Recoveries: s.recoveries.Load(),
	}
}

// sspClock implements the stale-synchronous-parallel coordination rule: a
// worker about to start tick c+1 blocks until the slowest worker has
// finished tick c−staleness.
type sspClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clocks []int
	// maxSkew is the largest clocks[w]−min observed as a worker entered a
	// tick — the SSP invariant bounds it by the staleness (guarded by mu).
	maxSkew int
	// aborted is first-error cancellation: every blocked or about-to-block
	// worker drains out instead of training against a doomed run.
	aborted bool
	// idle accumulates total time workers spent blocked in waitTurn — the
	// coordination cost BSP pays under stragglers.
	idle atomic.Int64
}

func newSSPClock(workers int) *sspClock {
	c := &sspClock{clocks: make([]int, workers)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *sspClock) minClock() int {
	m := math.MaxInt
	for _, v := range c.clocks {
		if v < m {
			m = v
		}
	}
	return m
}

// waitTurn blocks worker w until its next tick respects the staleness bound;
// it returns false if the run was aborted while waiting.
func (c *sspClock) waitTurn(w, staleness int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clocks[w]-c.minClock() > staleness && !c.aborted {
		start := time.Now()
		for c.clocks[w]-c.minClock() > staleness && !c.aborted {
			c.cond.Wait()
		}
		c.idle.Add(int64(time.Since(start)))
	}
	if c.aborted {
		return false
	}
	if skew := c.clocks[w] - c.minClock(); skew > c.maxSkew {
		c.maxSkew = skew
	}
	return true
}

// advance records that worker w finished one tick.
func (c *sspClock) advance(w int) {
	c.mu.Lock()
	c.clocks[w]++
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish releases worker w from the clock by setting it to +∞ so stragglers
// do not block others after completion.
func (c *sspClock) finish(w int) {
	c.mu.Lock()
	c.clocks[w] = math.MaxInt / 2
	c.cond.Broadcast()
	c.mu.Unlock()
}

// reenter admits a restarted worker at the current global minimum tick, so
// it rejoins the SSP window without blocking peers or violating the
// staleness bound, and returns the tick it must resume from.
func (c *sspClock) reenter(w int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.minClock()
	c.clocks[w] = m
	c.cond.Broadcast()
	return m
}

// abort triggers first-error cancellation, waking every blocked worker.
func (c *sspClock) abort() {
	c.mu.Lock()
	c.aborted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *sspClock) maxSkewSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxSkew
}

// Mode names the coordination regime.
type Mode int

// Coordination regimes.
const (
	// BSP barriers every tick (staleness 0).
	BSP Mode = iota
	// SSP allows the configured staleness bound between workers.
	SSP
	// Async runs workers with no coordination at all.
	Async
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case BSP:
		return "bsp"
	case SSP:
		return "ssp"
	case Async:
		return "async"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// TrainConfig configures distributed SGD through the parameter server.
type TrainConfig struct {
	Workers   int
	Epochs    int
	BatchSize int
	Step      float64
	Decay     float64 // per-epoch step decay
	Mode      Mode
	Staleness int // used when Mode == SSP
	Seed      int64
	// StragglerDelay injects extra per-batch compute time into worker 0,
	// emulating a heterogeneous cluster. BSP's barrier makes every worker
	// wait for the straggler; SSP tolerates it up to the staleness bound;
	// async ignores it — the published parameter-server motivation.
	StragglerDelay time.Duration
	// Checkpoint enables periodic model snapshots (see CheckpointConfig);
	// the latest snapshot survives a failed run for a warm restart through
	// RestoreFromCheckpoint.
	Checkpoint CheckpointConfig
	// MaxWorkerRestarts bounds how many times each killed worker is
	// restarted before the run aborts (0 = a kill is fatal).
	MaxWorkerRestarts int
}

func (c TrainConfig) validate(n int) error {
	if c.Workers < 1 {
		return fmt.Errorf("paramserver: workers must be ≥ 1")
	}
	if c.Epochs < 1 {
		return fmt.Errorf("paramserver: epochs must be ≥ 1")
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("paramserver: batch size must be ≥ 1")
	}
	if c.Step <= 0 {
		return fmt.Errorf("paramserver: step must be > 0")
	}
	if n == 0 {
		return fmt.Errorf("paramserver: empty data")
	}
	if c.Mode == SSP && c.Staleness < 0 {
		return fmt.Errorf("paramserver: negative staleness")
	}
	if c.Checkpoint.Path != "" && c.Checkpoint.Every < 1 {
		return fmt.Errorf("paramserver: checkpoint interval must be ≥ 1 push, got %d", c.Checkpoint.Every)
	}
	if c.MaxWorkerRestarts < 0 {
		return fmt.Errorf("paramserver: negative MaxWorkerRestarts")
	}
	return nil
}

// Result reports a distributed training run.
type Result struct {
	W         []float64
	FinalLoss float64
	Pulls     int64
	Pushes    int64
	// Retries, Timeouts, and Recoveries mirror Stats for the run's server:
	// RPC attempts beyond the first, deadline-abandoned ops, and worker
	// restarts after injected kills.
	Retries    int64
	Timeouts   int64
	Recoveries int64
	// MaxClockSkew is the largest clocks[w]−min observed as any worker
	// entered a tick; the SSP invariant keeps it ≤ the staleness bound.
	MaxClockSkew int
	// WorkerIdle is the total time workers spent blocked on the SSP clock —
	// near zero for async, large for BSP under stragglers.
	WorkerIdle time.Duration
}

// Train runs mini-batch SGD with the given coordination mode: rows are
// partitioned across workers; each batch tick a worker pulls the model,
// computes its mini-batch gradient, and pushes the scaled update.
//
// Under the server's fault model, failed RPCs are retried with backoff, a
// killed worker is restarted up to MaxWorkerRestarts times — re-entering the
// shared clock at the current global minimum tick and recomputing its data
// cursor from it — and any unrecoverable error cancels the whole run
// promptly (first-error cancellation) instead of letting healthy workers
// train a doomed model to completion. The fault model is the server's, not
// the run's: a second Train on the same server continues its injector's RNG
// and does not repeat kills that already fired.
func Train(ps *Server, data *la.Dense, y []float64, loss opt.Loss, cfg TrainConfig) (*Result, error) {
	n := data.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if len(y) != n {
		return nil, fmt.Errorf("paramserver: %d labels for %d rows", len(y), n)
	}
	if data.Cols() != ps.dim {
		return nil, fmt.Errorf("paramserver: data has %d cols, server dim %d", data.Cols(), ps.dim)
	}
	var ck *checkpointer
	if cfg.Checkpoint.Path != "" {
		ck = newCheckpointer(cfg.Checkpoint)
	}
	staleness := cfg.Staleness
	switch cfg.Mode {
	case BSP:
		staleness = 0
	case Async:
		staleness = math.MaxInt / 4
	}
	clock := newSSPClock(cfg.Workers)

	chunk := (n + cfg.Workers - 1) / cfg.Workers
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		lo := wkr * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			clock.finish(wkr)
			continue
		}
		wg.Add(1)
		go func(id, lo, hi int) {
			defer wg.Done()
			defer clock.finish(id)
			// Supervisor loop: restart the worker body after an injected
			// kill, re-entering the clock at the current global minimum.
			// The incarnation number keeps push sequences monotone across
			// restarts even though the worker's local state is lost.
			startTick, incarnation := 0, 0
			for {
				err := trainWorker(ps, data, y, loss, cfg, clock, ck, id, lo, hi, staleness, startTick, incarnation)
				switch {
				case err == nil || errors.Is(err, errAborted):
					return
				case errors.Is(err, errKilled) && incarnation < cfg.MaxWorkerRestarts:
					incarnation++
					ps.recoveries.Add(1)
					mRecoveries.Inc()
					startTick = clock.reenter(id)
				default:
					errs[id] = err
					clock.abort()
					return
				}
			}
		}(wkr, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w, err := ps.Pull()
	if err != nil {
		return nil, fmt.Errorf("paramserver: final pull: %w", err)
	}
	st := ps.Stats()
	return &Result{
		W:            w,
		FinalLoss:    opt.MeanLoss(data, y, w, loss),
		Pulls:        st.Pulls,
		Pushes:       st.Pushes,
		Retries:      st.Retries,
		Timeouts:     st.Timeouts,
		Recoveries:   st.Recoveries,
		MaxClockSkew: clock.maxSkewSeen(),
		WorkerIdle:   time.Duration(clock.idle.Load()),
	}, nil
}

// trainWorker is one incarnation of worker id over rows [lo, hi): it runs
// ticks [startTick, total), deriving epoch and batch position from the tick
// so a restarted incarnation can resume anywhere. The shuffle order is
// reconstructed deterministically from the seed by replaying the per-epoch
// shuffles, so a restart sees exactly the order the lost incarnation did.
func trainWorker(ps *Server, data *la.Dense, y []float64, loss opt.Loss, cfg TrainConfig,
	clock *sspClock, ck *checkpointer, id, lo, hi, staleness, startTick, incarnation int) error {
	span := hi - lo
	ticksPerEpoch := (span + cfg.BatchSize - 1) / cfg.BatchSize
	total := cfg.Epochs * ticksPerEpoch
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	order := rng.Perm(span)
	shuffle := func() {
		rng.Shuffle(span, func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	for e := 0; e < startTick/ticksPerEpoch; e++ {
		shuffle()
	}
	grad := make([]float64, ps.dim)
	seq := uint64(incarnation) << 32
	for t := startTick; t < total; t++ {
		if t != startTick && t%ticksPerEpoch == 0 {
			shuffle()
		}
		if !clock.waitTurn(id, staleness) {
			return errAborted
		}
		if ps.faults != nil && ps.faults.shouldKill(id, t) {
			return fmt.Errorf("worker %d crashed at tick %d: %w", id, t, errKilled)
		}
		if id == 0 && cfg.StragglerDelay > 0 {
			time.Sleep(cfg.StragglerDelay)
		}
		w, err := ps.Pull()
		if err != nil {
			return fmt.Errorf("paramserver: worker %d tick %d: %w", id, t, err)
		}
		e := t / ticksPerEpoch
		b := (t % ticksPerEpoch) * cfg.BatchSize
		bEnd := min(b+cfg.BatchSize, span)
		opt.BatchGradientInto(data, y, w, loss, order[b:bEnd], lo, grad)
		step := cfg.Step / (1 + cfg.Decay*float64(e))
		seq++
		if err := ps.pushFrom(id, seq, grad, -step/float64(bEnd-b)); err != nil {
			return fmt.Errorf("paramserver: worker %d tick %d: %w", id, t, err)
		}
		if ck != nil {
			if err := ck.maybe(ps); err != nil {
				return fmt.Errorf("paramserver: worker %d: %w", id, err)
			}
		}
		clock.advance(id)
	}
	return nil
}
