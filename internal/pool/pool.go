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
// [lo,hi) into acc, and Reduce sums the contributions into dst over the grid
// of Grain(n, itemWork, len(dst)) items per chunk — zeroing and merging a
// partial is a chunk's fixed cost. Chunk 0 accumulates straight into dst,
// which must already hold the value to add to (usually zeros). Every later
// chunk accumulates into a zeroed scratch partial the length of dst, which is
// added into dst as soon as every lower-indexed chunk has been and then
// released. The grid and the merge order depend on the shape alone — never
// on GOMAXPROCS, Workers, the gate or which worker ran which chunk — so for a
// deterministic body dst is bit-identical across runs and core counts. A call
// under the gate (Parallel), or of one chunk, walks the same grid on the
// calling goroutine, as ReduceSerial does. With a one-element dst it is the
// reproducible scalar sum.
//
// Reduce itself allocates nothing in steady state. body reaches the workers,
// so a closure passed here is heap-allocated even when the call runs
// serially; kernels pinned to zero allocations call ReduceSerial unless
// Parallel holds, or pass a method value bound once.
func Reduce(dst []float64, n, itemWork int, body func(acc []float64, lo, hi int)) {
	chunk := Grain(n, itemWork, len(dst))
	if n <= chunk || !Parallel(n*itemWork) {
		ReduceSerial(dst, n, itemWork, body)
		return
	}
	r := reductions.Get()
	r.dst, r.n, r.chunk, r.body, r.merged = dst, n, chunk, body, 0
	chunks := (n + chunk - 1) / chunk
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
// into dst in chunk order — the bits Reduce gives at any GOMAXPROCS, on
// either side of the gate. body stays on the caller's stack, where a closure
// handed to Reduce reaches the workers and is heap-allocated.
func ReduceSerial(dst []float64, n, itemWork int, body func(acc []float64, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := Grain(n, itemWork, len(dst))
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

// parallelWork is the gate, in scalar operations: a call under it runs on
// the calling goroutine. On a 2-vCPU host a pool helper starts 70–110 µs
// after a Do call wakes it, so a call gains only once its serial time is well
// past that: a 4096-row, 40-group compressed block (≈ 2^17.3, about 0.2 ms
// per kernel serially) gains 13–30% per kernel, while 2^16 still loses.
const parallelWork = 1 << 17

// minChunkWork is the least scalar work of one grid chunk: enough to
// amortize the atomic claim and the cache traffic of starting a chunk.
const minChunkWork = 1 << 14

// Parallel reports whether a call of work scalar operations fans out over
// the pool: work is at least the gate and GOMAXPROCS is above 1. It decides
// speed alone — a reduction walks Grain's grid on either side — so kernels
// branch on it to build the closure Reduce or Do needs only where it runs on
// the workers.
func Parallel(work int) bool {
	return work >= parallelWork && runtime.GOMAXPROCS(0) > 1
}

// Grain is the chunk size of the grid over n items of itemWork scalar
// operations each, where entering a chunk costs chunkWork more (a Reduce
// partial to zero and merge, an entry list to binary-search). It targets 32
// chunks — 8 per worker on a 4-core host, room for dynamic scheduling to
// rebalance skew — but a chunk does at least minChunkWork and at least 8×
// chunkWork, and spans a multiple of eight items, so a kernel's eight-lane
// groups fall on the same items whatever the split. The result depends on
// the shape alone — not on GOMAXPROCS, Workers or the gate — so a reduction
// over it has the same grid, and the same bits, at every core count and on
// both sides of the gate.
//
//dmml:noalloc
func Grain(n, itemWork, chunkWork int) int {
	if n <= 0 {
		return 1
	}
	itemWork = max(itemWork, 1)
	g := max((n+31)/32, (minChunkWork+itemWork-1)/itemWork, (8*chunkWork+itemWork-1)/itemWork)
	return min((g+7)&^7, n)
}
