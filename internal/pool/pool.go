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
// exhausted.
type job struct {
	next  atomic.Int64
	n     int64
	grain int64
	fn    func(lo, hi int)
	wg    sync.WaitGroup
}

// run claims chunks until the job is drained. Called by at most Workers()
// goroutines per job. helper marks recruited workers (as opposed to the
// goroutine that submitted the job) so stolen chunks can be counted.
func (j *job) run(helper bool) {
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
		j.fn(int(lo), int(hi))
	}
}

var (
	startOnce sync.Once
	jobs      chan *job
	poolSize  int
	jobFree   = Freelist[job]{New: func() *job { return new(job) }}
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

// Workers starts the pool if it is not running and returns its size: the
// most goroutines, the caller included, that can run one Do call's chunks.
func Workers() int {
	startOnce.Do(start)
	return poolSize
}

// Do runs fn over [0,n) split into dynamically scheduled chunks of at most
// grain items. Chunks are claimed in order off a shared atomic counter:
// skewed per-item cost rebalances automatically instead of serializing on the
// slowest static chunk.
//
// Do returns after every chunk has completed. It is safe to call from inside
// an fn of an outer Do (the inner call runs on the calling goroutine when no
// helpers are free).
func Do(n, grain int, fn func(lo, hi int)) {
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
		fn(0, n)
		return
	}
	j := jobFree.Get()
	j.next.Store(0)
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
	jobFree.Put(j)
}

// Reduce is the parallel reduction: body adds the contribution of items
// [lo,hi) into acc, and Reduce sums the contributions into dst over the fixed
// grid [0,chunk), [chunk,2·chunk), … of [0,n). Chunk 0 accumulates straight
// into dst, which must already hold the value to add to (usually zeros).
// Every later chunk accumulates into a zeroed scratch partial the length of
// dst, which is added into dst as soon as every lower-indexed chunk has been
// and then released. The grid and the merge order depend on n and chunk
// alone — never on GOMAXPROCS, Workers or which worker ran which chunk — so
// for a deterministic body dst is bit-identical across runs and core counts;
// at GOMAXPROCS=1 the chunks run in index order through one recycled
// partial. With a one-element dst it is the reproducible scalar sum.
//
// Reduce itself allocates nothing in steady state. body reaches the workers,
// so a closure passed here is heap-allocated even when the grid is a single
// chunk; kernels pinned to zero allocations call their range body directly
// when n ≤ chunk.
func Reduce(dst []float64, n, chunk int, body func(acc []float64, lo, hi int)) {
	if n <= 0 {
		return
	}
	r := reductions.Get()
	r.dst, r.n, r.chunk, r.body, r.merged = dst, n, max(chunk, 1), body, 0
	chunks := (n + r.chunk - 1) / r.chunk
	if cap(r.parts) < chunks {
		r.parts = make([][]float64, chunks)
	}
	r.parts = r.parts[:chunks]
	Do(chunks, 1, r.run)
	clear(r.parts)
	r.dst, r.body = nil, nil
	reductions.Put(r)
}

// ReduceSerial walks Reduce's grid on the calling goroutine: chunk 0 into
// dst, then each later chunk into one zeroed scratch partial that is added
// into dst in chunk order — the bits Reduce gives at any GOMAXPROCS. body
// stays on the caller's stack, where a closure handed to Reduce reaches the
// workers and is heap-allocated, so kernels pinned to zero allocations at
// GOMAXPROCS=1 call this there.
func ReduceSerial(dst []float64, n, chunk int, body func(acc []float64, lo, hi int)) {
	body(dst, 0, min(chunk, n))
	if n <= chunk {
		return
	}
	part := GetF64(len(dst))
	for lo := chunk; lo < n; lo += chunk {
		for i := range part {
			part[i] = 0
		}
		body(part, lo, min(lo+chunk, n))
		for i, v := range part {
			dst[i] += v
		}
	}
	PutF64(part)
}

// reduction is one Reduce call's state. It is recycled with its run method
// value bound once, so a call allocates no closure or table of its own.
type reduction struct {
	mu       sync.Mutex
	dst      []float64
	n, chunk int
	body     func(acc []float64, lo, hi int)
	// parts[c] is chunk c's finished accumulator (dst itself for chunk 0),
	// nil until then and again once the call returns. An empty dst leaves
	// every entry nil, so nothing is ever merged — and nothing needs to be.
	parts  [][]float64
	merged int // chunks [0, merged) are summed into dst
	run    func(c0, c1 int)
}

var reductions = Freelist[reduction]{New: func() *reduction {
	r := &reduction{}
	r.run = r.chunks
	return r
}}

// chunks runs chunks [c0,c1) and merges every finished partial whose
// predecessors are all in dst.
func (r *reduction) chunks(c0, c1 int) {
	for c := c0; c < c1; c++ {
		acc := r.dst
		if c > 0 {
			acc = GetF64Zeroed(len(r.dst))
		}
		r.body(acc, c*r.chunk, min((c+1)*r.chunk, r.n))
		r.mu.Lock()
		r.parts[c] = acc
		for ; r.merged < len(r.parts) && r.parts[r.merged] != nil; r.merged++ {
			if r.merged > 0 {
				for i, v := range r.parts[r.merged] {
					r.dst[i] += v
				}
				PutF64(r.parts[r.merged])
			}
		}
		r.mu.Unlock()
	}
}

// Freelist recycles values of one type through a bounded mutex-guarded
// stack, the discipline the scratch classes use for slices. Unlike a
// sync.Pool it never drops what it is given — not under the race detector,
// which discards a random share of sync.Pool puts, and not at a collection —
// so a warm Get/Put cycle allocates nothing in any build. At most
// freelistMax values are retained; a Put beyond that leaves the value to the
// GC. New makes a value when the list is empty.
type Freelist[T any] struct {
	New   func() *T
	mu    sync.Mutex
	items []*T
}

// freelistMax bounds one Freelist's retained values: enough for every
// concurrently running (and nested) pool call on a wide host.
const freelistMax = 64

// Get pops a recycled value, or makes one with New.
func (f *Freelist[T]) Get() *T {
	f.mu.Lock()
	if k := len(f.items); k > 0 {
		x := f.items[k-1]
		f.items[k-1] = nil
		f.items = f.items[:k-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.New()
}

// Put returns x for reuse; the caller must not touch it afterwards.
func (f *Freelist[T]) Put(x *T) {
	f.mu.Lock()
	if len(f.items) < freelistMax {
		f.items = append(f.items, x)
	}
	f.mu.Unlock()
}

// SerialNow reports whether Do would currently run jobs serially
// (GOMAXPROCS is 1). Kernels use it to call their range body directly, which
// keeps the closure a Do or Reduce call needs off the heap.
func SerialNow() bool {
	return runtime.GOMAXPROCS(0) <= 1
}

// Grain picks a chunk size for a parallel-for of n items where each item
// costs roughly itemWork scalar operations. It targets a fixed number of
// chunks, enough for dynamic load balancing to rebalance skewed items, while
// keeping each chunk heavy enough to amortize the atomic claim and cache
// traffic. The result depends on n and itemWork alone, so a Reduce over it
// has the same grid — and the same bits — at every core count.
//
//dmml:noalloc
func Grain(n, itemWork int) int {
	if n <= 0 {
		return 1
	}
	if itemWork < 1 {
		itemWork = 1
	}
	// 32 chunks is 8 per worker on a 4-core host: room for the scheduler
	// to rebalance skew.
	const target = 32
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
