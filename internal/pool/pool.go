// Package pool is the shared execution engine under dmml's hot kernels: a
// persistent, lazily-started worker pool with dynamic chunk scheduling, plus
// a size-bucketed scratch allocator for kernel temporaries.
//
// Why not per-call goroutines? Iterative training (SGD/GD) calls MatVec and
// VecMat thousands of times per fit; spawning GOMAXPROCS goroutines per call
// costs scheduling latency and garbage on every iteration. The pool starts
// its workers once and hands them work through a small channel of job
// descriptors.
//
// Why dynamic chunks? Static contiguous chunking serializes on the slowest
// chunk whenever work is skewed — GEMM rows with many zeros, CLA column
// groups of wildly different encodings, sparse rows of unequal density. Here
// workers claim fixed-size chunks off a shared atomic index, so a worker that
// finishes early steals the remaining range instead of idling.
//
// Nesting is safe: a worker that calls Do again simply runs the inner job on
// its own goroutine (enqueue is non-blocking), so compressed kernels can call
// dense kernels freely without deadlock.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dmml/internal/metrics"
)

// Observability instruments (no-ops until metrics.Enable). Chunk counts are
// incremented once per claimed chunk — chunks carry ≥ ~16K scalar ops, so
// even enabled collection is noise next to the work itself. "Steals" are
// chunks executed by recruited helpers rather than the submitting
// goroutine: steals/claims is the fraction of work the pool actually
// offloaded, and helpers-recruited vs do-calls exposes utilization.
var (
	mDoCalls    = metrics.NewCounter("pool.do.calls")
	mDoSerial   = metrics.NewCounter("pool.do.serial")
	mChunks     = metrics.NewCounter("pool.chunks.claimed")
	mSteals     = metrics.NewCounter("pool.chunks.stolen")
	mHelpers    = metrics.NewCounter("pool.helpers.recruited")
	mQueueDepth = metrics.NewGauge("pool.queue.depth")
)

// job is one parallel-for: workers claim [lo,hi) chunks off next until n is
// exhausted. Each participating goroutine reserves a distinct slot so callers
// can maintain per-worker partial accumulators.
type job struct {
	next  atomic.Int64
	slots atomic.Int64
	n     int64
	grain int64
	fn    func(slot, lo, hi int)
	wg    sync.WaitGroup
}

// run claims chunks until the job is drained. Called by at most Workers()
// goroutines per job, each under a unique slot. helper marks recruited
// workers (as opposed to the goroutine that submitted the job) so stolen
// chunks can be counted.
func (j *job) run(helper bool) {
	slot := int(j.slots.Add(1) - 1)
	for {
		lo := j.next.Add(j.grain) - j.grain
		if lo >= j.n {
			return
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		mChunks.Inc()
		if helper {
			mSteals.Inc()
		}
		j.fn(slot, int(lo), int(hi))
	}
}

var (
	startOnce sync.Once
	jobs      chan *job
	poolSize  int
	jobPool   = sync.Pool{New: func() any { return new(job) }}
)

// start launches the resident helper goroutines. They live for the process
// lifetime and are blocked on a channel receive when idle, which costs
// nothing while the program is doing serial work. The pool is sized once, to
// max(GOMAXPROCS, NumCPU, 4): per-call parallelism is bounded by the
// GOMAXPROCS current at that call, so oversizing costs only idle goroutines
// while keeping helpers available if GOMAXPROCS is raised later (tests do
// this; so do servers that start pinned and widen after warm-up).
func start() {
	poolSize = runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n > poolSize {
		poolSize = n
	}
	if poolSize < 4 {
		poolSize = 4
	}
	jobs = make(chan *job, poolSize)
	for i := 0; i < poolSize-1; i++ {
		go func() {
			for j := range jobs {
				j.run(true)
				j.wg.Done()
			}
		}()
	}
}

// Workers returns the number of scheduling slots, i.e. the upper bound
// (exclusive) on the slot argument passed to a Do callback. Size per-worker
// accumulator arrays with this.
func Workers() int {
	startOnce.Do(start)
	return poolSize
}

// Do runs fn over [0,n) split into dynamically scheduled chunks of at most
// grain items. fn is invoked with a slot in [0, Workers()) that is unique
// among the goroutines concurrently executing this call, so callers can index
// per-worker partial accumulators by slot. Chunks are claimed in order off a
// shared atomic counter: skewed per-item cost rebalances automatically
// instead of serializing on the slowest static chunk.
//
// Do returns after every chunk has completed. It is safe to call from inside
// an fn of an outer Do (the inner call runs on the calling goroutine when no
// helpers are free).
func Do(n, grain int, fn func(slot, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	startOnce.Do(start)
	mDoCalls.Inc()
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || n <= grain {
		mDoSerial.Inc()
		fn(0, 0, n)
		return
	}
	j := jobPool.Get().(*job)
	j.next.Store(0)
	j.slots.Store(0)
	j.n = int64(n)
	j.grain = int64(grain)
	j.fn = fn
	// Offer the job to idle helpers without blocking; the caller always
	// participates, so a full channel just means less parallelism, never a
	// stall. Cap helpers at current GOMAXPROCS and at the number of chunks
	// beyond the caller's first.
	maxHelpers := procs - 1
	if poolSize-1 < maxHelpers {
		maxHelpers = poolSize - 1
	}
	if c := int((int64(n) + int64(grain) - 1) / int64(grain)); c-1 < maxHelpers {
		maxHelpers = c - 1
	}
	if metrics.Enabled() {
		mQueueDepth.Set(float64(len(jobs)))
	}
	recruited := 0
	for h := 0; h < maxHelpers; h++ {
		j.wg.Add(1)
		select {
		case jobs <- j:
			recruited++
		default:
			j.wg.Done()
			h = maxHelpers // no idle helpers; stop offering
		}
	}
	mHelpers.Add(int64(recruited))
	j.run(false)
	j.wg.Wait()
	j.fn = nil
	jobPool.Put(j)
}

// ReduceInto is the parallel-reduction form of Do: body accumulates the
// contribution of items [lo,hi) into acc, a private accumulator the length of
// dst, and the per-worker accumulators are summed into dst once every chunk
// has run. Slot 0 accumulates straight into dst (which therefore must already
// hold the value to add to, usually zeros); every other slot that claims a
// chunk borrows a zeroed scratch buffer, which is added into dst in slot
// order and released. Chunks are claimed dynamically, so which slot sums
// which chunk — and with it the last bits of dst — varies from run to run;
// a reduction that must reproduce uses SumChunks. The slot table is the only
// allocation. Kernels keep their serial fast path (small input or SerialNow)
// in front of the call.
func ReduceInto(dst []float64, n, grain int, body func(acc []float64, lo, hi int)) {
	partials := make([][]float64, Workers())
	partials[0] = dst
	Do(n, grain, func(slot, lo, hi int) {
		acc := partials[slot]
		if acc == nil {
			acc = GetF64Zeroed(len(dst))
			partials[slot] = acc
		}
		body(acc, lo, hi)
	})
	for _, p := range partials[1:] {
		if p != nil {
			for i, v := range p {
				dst[i] += v
			}
			PutF64(p)
		}
	}
}

// SumChunks is the reproducible scalar reduction: body is evaluated on the
// fixed chunks [0,chunk), [chunk,2·chunk), … of [0,n), in parallel, and the
// results are added in chunk-index order. The chunking depends on n and chunk
// alone — never on GOMAXPROCS, Workers or which worker claimed what — so for a
// deterministic body the sum is bit-identical across runs and core counts.
// The Do closure is the only allocation (none when n ≤ chunk).
func SumChunks(n, chunk int, body func(lo, hi int) float64) float64 {
	if n <= chunk {
		return body(0, n)
	}
	partials := GetF64((n + chunk - 1) / chunk)
	Do(len(partials), 1, func(_, c0, c1 int) {
		for c := c0; c < c1; c++ {
			partials[c] = body(c*chunk, min((c+1)*chunk, n))
		}
	})
	total := 0.0
	for _, p := range partials {
		total += p
	}
	PutF64(partials)
	return total
}

// SerialNow reports whether Do would currently run jobs serially
// (GOMAXPROCS is 1). Kernels use it to skip setting up per-worker partial
// accumulators that a serial run would never touch.
func SerialNow() bool {
	return runtime.GOMAXPROCS(0) <= 1
}

// Grain picks a chunk size for a parallel-for of n items where each item
// costs roughly itemWork scalar operations. It targets enough chunks per
// worker for dynamic load balancing (so skewed items rebalance) while keeping
// each chunk heavy enough to amortize the atomic claim and cache traffic.
//
//dmml:noalloc
func Grain(n, itemWork int) int {
	if n <= 0 {
		return 1
	}
	if itemWork < 1 {
		itemWork = 1
	}
	// ~8 chunks per worker gives the scheduler room to rebalance skew.
	target := Workers() * 8
	g := (n + target - 1) / target
	// Keep at least minChunkWork scalar ops per chunk.
	const minChunkWork = 1 << 14
	if g*itemWork < minChunkWork {
		g = (minChunkWork + itemWork - 1) / itemWork
	}
	if g > n {
		g = n
	}
	if g < 1 {
		g = 1
	}
	return g
}
