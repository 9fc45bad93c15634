package pool

import "sync"

// Scratch allocator: size-bucketed freelists of float64 and int slices.
// Kernels that need short-lived temporaries (packed GEMM panels, per-worker
// partial accumulators, premultiplied dictionaries, join keys) borrow buffers
// here instead of allocating per call, so iterative training reaches a
// zero-allocation steady state.
//
// A mutex-guarded stack per power-of-two size class is used rather than
// sync.Pool: Put into a sync.Pool boxes the slice header and allocates on
// every call, which is exactly the steady-state garbage this allocator
// exists to remove. Retention per class is capped (scratchClassBudget bytes),
// so the resident scratch footprint is bounded; buffers beyond the cap — and
// requests beyond the largest class — fall through to the GC.
//
// Contract: GetF64 and GetInt return a slice with arbitrary contents;
// GetF64Zeroed returns an all-zero slice. PutF64 recycles a buffer obtained
// from either float getter, PutInt one from GetInt. Buffers must not be used
// after they are put back.

const (
	scratchMinBits = 6  // smallest bucket: 64 floats (512 B)
	scratchMaxBits = 22 // largest bucket: 4M floats (32 MB)

	// scratchClassBudget caps the bytes parked on any one class freelist.
	scratchClassBudget = 32 << 20
)

// sizeClasses is one freelist per size class of []T buffers. Both element
// types pooled here (float64, int) are 8 bytes on every supported platform,
// so one retention cap per class serves both.
type sizeClasses[T any] [scratchMaxBits - scratchMinBits + 1]struct {
	mu   sync.Mutex
	bufs [][]T
}

var (
	f64Scratch sizeClasses[float64]
	// intScratch backs join-key arrays (composed foreign keys,
	// radix/counting passes) in the factorized engine.
	intScratch sizeClasses[int]
)

// classRetention is the number of buffers class c keeps: its share of
// scratchClassBudget, at most 64 and at least 1 (the largest class is
// exactly the budget).
func classRetention(c int) int {
	return min(64, scratchClassBudget/(8<<(scratchMinBits+c)))
}

// scratchClass returns the bucket index for a request of n elements, or -1
// when the request is outside the pooled range and should be plainly
// allocated.
//
//dmml:noalloc
func scratchClass(n int) int {
	if n > 1<<scratchMaxBits {
		return -1
	}
	c := 0
	for 1<<(scratchMinBits+c) < n {
		c++
	}
	return c
}

func (s *sizeClasses[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := scratchClass(n)
	if c < 0 {
		return make([]T, n)
	}
	fl := &s[c]
	fl.mu.Lock()
	if k := len(fl.bufs); k > 0 {
		buf := fl.bufs[k-1]
		fl.bufs[k-1] = nil
		fl.bufs = fl.bufs[:k-1]
		fl.mu.Unlock()
		return buf[:n]
	}
	fl.mu.Unlock()
	return make([]T, n, 1<<(scratchMinBits+c))
}

// put recycles buf. Buffers whose capacity is not a pooled size class (or
// whose class is at its retention cap) are dropped for the GC, so passing
// foreign buffers is harmless.
func (s *sizeClasses[T]) put(buf []T) {
	c := cap(buf)
	if c < 1<<scratchMinBits || c > 1<<scratchMaxBits || c&(c-1) != 0 {
		return
	}
	cls := scratchClass(c)
	fl := &s[cls]
	fl.mu.Lock()
	if len(fl.bufs) < classRetention(cls) {
		fl.bufs = append(fl.bufs, buf[:c])
	}
	fl.mu.Unlock()
}

// GetF64 returns a length-n scratch slice with unspecified contents.
func GetF64(n int) []float64 { return f64Scratch.get(n) }

// GetF64Zeroed returns a length-n all-zero scratch slice.
func GetF64Zeroed(n int) []float64 {
	buf := GetF64(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// PutF64 returns a scratch slice to the pool.
func PutF64(buf []float64) { f64Scratch.put(buf) }

// GetInt returns a length-n scratch []int with unspecified contents. It is
// the integer twin of GetF64, pooled under the same size classes; pair every
// GetInt with PutInt.
func GetInt(n int) []int { return intScratch.get(n) }

// PutInt returns an int scratch slice to the pool.
func PutInt(buf []int) { intScratch.put(buf) }
