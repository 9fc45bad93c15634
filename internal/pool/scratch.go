package pool

import "sync"

// Scratch allocator: size-bucketed freelists of float64 slices. Kernels that
// need short-lived temporaries (packed GEMM panels, per-worker partial
// accumulators, premultiplied dictionaries) borrow buffers here instead of
// allocating per call, so iterative training reaches a zero-allocation steady
// state.
//
// A mutex-guarded stack per power-of-two size class is used rather than
// sync.Pool: Put into a sync.Pool boxes the slice header and allocates on
// every call, which is exactly the steady-state garbage this allocator
// exists to remove. Retention per class is capped (scratchClassBudget bytes),
// so the resident scratch footprint is bounded; buffers beyond the cap — and
// requests beyond the largest class — fall through to the GC.
//
// Contract: GetF64 returns a slice with arbitrary contents; GetF64Zeroed
// returns an all-zero slice. PutF64 recycles a buffer obtained from either.
// Buffers must not be used after PutF64.

const (
	scratchMinBits = 6  // smallest bucket: 64 floats (512 B)
	scratchMaxBits = 22 // largest bucket: 4M floats (32 MB)

	// scratchClassBudget caps the bytes parked on any one class freelist.
	scratchClassBudget = 32 << 20
)

type scratchFreelist struct {
	mu   sync.Mutex
	bufs [][]float64
	max  int // retention cap for this class
}

// intFreelist mirrors scratchFreelist for []int buffers — the typed scratch
// behind join-key arrays (composed foreign keys, radix/counting passes) in
// the factorized engine.
type intFreelist struct {
	mu   sync.Mutex
	bufs [][]int
	max  int
}

var (
	scratchClasses [scratchMaxBits - scratchMinBits + 1]scratchFreelist
	intScratch     [scratchMaxBits - scratchMinBits + 1]intFreelist
)

func init() {
	for c := range scratchClasses {
		classBytes := 8 << (scratchMinBits + c)
		n := scratchClassBudget / classBytes
		if n > 64 {
			n = 64
		}
		scratchClasses[c].max = n // >= 1: largest class is exactly the budget
		intScratch[c].max = n     // int is 8 bytes on every supported platform
	}
}

// scratchClass returns the bucket index for a request of n floats, or -1 when
// the request is outside the pooled range and should be plainly allocated.
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

// GetF64 returns a length-n scratch slice with unspecified contents.
func GetF64(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := scratchClass(n)
	if c < 0 {
		return make([]float64, n)
	}
	fl := &scratchClasses[c]
	fl.mu.Lock()
	if k := len(fl.bufs); k > 0 {
		buf := fl.bufs[k-1]
		fl.bufs[k-1] = nil
		fl.bufs = fl.bufs[:k-1]
		fl.mu.Unlock()
		return buf[:n]
	}
	fl.mu.Unlock()
	return make([]float64, n, 1<<(scratchMinBits+c))
}

// GetF64Zeroed returns a length-n all-zero scratch slice.
func GetF64Zeroed(n int) []float64 {
	buf := GetF64(n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// GetInt returns a length-n scratch []int with unspecified contents. It is
// the integer twin of GetF64, pooled under the same size classes; pair every
// GetInt with PutInt.
func GetInt(n int) []int {
	if n <= 0 {
		return nil
	}
	c := scratchClass(n)
	if c < 0 {
		return make([]int, n)
	}
	fl := &intScratch[c]
	fl.mu.Lock()
	if k := len(fl.bufs); k > 0 {
		buf := fl.bufs[k-1]
		fl.bufs[k-1] = nil
		fl.bufs = fl.bufs[:k-1]
		fl.mu.Unlock()
		return buf[:n]
	}
	fl.mu.Unlock()
	return make([]int, n, 1<<(scratchMinBits+c))
}

// PutInt returns an int scratch slice to the pool; like PutF64, foreign or
// over-cap buffers are dropped for the GC.
func PutInt(buf []int) {
	c := cap(buf)
	if c < 1<<scratchMinBits || c > 1<<scratchMaxBits || c&(c-1) != 0 {
		return
	}
	fl := &intScratch[scratchClass(c)]
	fl.mu.Lock()
	if len(fl.bufs) < fl.max {
		fl.bufs = append(fl.bufs, buf[:c])
	}
	fl.mu.Unlock()
}

// PutF64 returns a scratch slice to the pool. Slices whose capacity is not a
// pooled size class (or whose class is at its retention cap) are dropped for
// the GC, so passing foreign buffers is harmless.
func PutF64(buf []float64) {
	c := cap(buf)
	if c < 1<<scratchMinBits || c > 1<<scratchMaxBits || c&(c-1) != 0 {
		return
	}
	cls := scratchClass(c)
	fl := &scratchClasses[cls]
	fl.mu.Lock()
	if len(fl.bufs) < fl.max {
		fl.bufs = append(fl.bufs, buf[:c])
	}
	fl.mu.Unlock()
}
