// Package scratchpair is the golden diagnostic package for the scratchpair
// analyzer: seeded leaks that must be reported, and every sanctioned idiom
// from the engine tree that must NOT be (defer release, branch release,
// swap, view binding, //dmml:owns-scratch).
package scratchpair

import "dmml/internal/pool"

// Seeded bug: classic early-return leak — the error path drops the buffer.
func leakOnEarlyReturn(n int) float64 {
	buf := pool.GetF64(n)
	if n > 4 {
		return 0 // want `scratch buffer "buf" .* is not released on return`
	}
	s := buf[0]
	pool.PutF64(buf)
	return s
}

// Seeded bug: no release at all.
func leakAtEnd(n int) {
	buf := pool.GetF64Zeroed(n)
	buf[0] = 1
} // want `scratch buffer "buf" .* is not released on function end`

// Seeded bug: acquired and immediately dropped.
func discarded(n int) {
	pool.GetF64(n) // want `scratch buffer from pool.GetF64 is discarded`
}

// Seeded bug: one switch arm leaks.
func leakInSwitchArm(n int) float64 {
	buf := pool.GetF64(n)
	switch {
	case n > 10:
		pool.PutF64(buf)
		return 0
	case n > 5:
		return 1 // want `scratch buffer "buf" .* is not released on return`
	}
	s := buf[0]
	pool.PutF64(buf)
	return s
}

// Seeded bug: acquired fresh every iteration, never released.
func leakPerIteration(n, iters int) float64 {
	var s float64
	for i := 0; i < iters; i++ {
		buf := pool.GetF64(n)
		s += buf[0]
	} // want `scratch buffer "buf" .* is not released on loop iteration`
	return s
}

// Seeded bug: the buffer escapes into a package-level variable without an
// ownership annotation.
var parked []float64

func leakByEscape(n int) {
	buf := pool.GetF64(n) // want `scratch buffer "buf" escapes \(assigned to parked\)`
	parked = buf
}

// Seeded bug: parked in a local table — a release call elsewhere in the
// function proves nothing about this buffer. (Regression pin: the analyzer
// used to accept this as a "slot transfer"; the one partials table lives in
// pool.Reduce.)
func leakBySlotStore(n int) {
	table := make([][]float64, 2)
	buf := pool.GetF64(n) // want `scratch buffer "buf" escapes \(assigned to table\[0\]\)`
	table[0] = buf
	other := pool.GetF64(n)
	pool.PutF64(other)
}

// Seeded bug: returned to the caller without //dmml:owns-scratch.
func leakByReturn(n int) []float64 {
	buf := pool.GetF64(n) // want `scratch buffer "buf" escapes \(returned to the caller\)`
	return buf
}

// Seeded bug: the early return reads an element of the buffer — a borrow,
// not an ownership transfer — so the leak must still fire. (Regression pin:
// a return merely *mentioning* the buffer used to suppress the proof.)
func leakOnElementReturn(n int) float64 {
	buf := pool.GetF64(n)
	if n > 4 {
		return buf[0] // want `scratch buffer "buf" .* is not released on return`
	}
	pool.PutF64(buf)
	return 0
}

// ---- false-positive guards: every one of these must stay silent ----

// Guard: defer pairs on every path.
func deferRelease(n int) float64 {
	buf := pool.GetF64(n)
	defer pool.PutF64(buf)
	if n > 4 {
		return 0
	}
	return buf[0]
}

// Guard: explicit release dominating each return (the pool.GetF64 shape).
func branchRelease(n int) float64 {
	buf := pool.GetF64(n)
	if n > 4 {
		pool.PutF64(buf)
		return 0
	}
	s := buf[0]
	pool.PutF64(buf)
	return s
}

// Guard: the GD swap idiom — names permute, defers release the originals.
func swapRelease(n int) {
	a := pool.GetF64(n)
	defer pool.PutF64(a)
	b := pool.GetF64(n)
	defer pool.PutF64(b)
	a[0], b[0] = 1, 2
	a, b = b, a
	a[0]++
	b[0]++
}

// Guard: a local view over the buffer is not an ownership transfer.
func viewBinding(n int) float64 {
	buf := pool.GetF64(n)
	head := buf[:n/2]
	s := head[0]
	pool.PutF64(buf)
	return s
}

// Guard: element reads are values, not aliases.
func elementRead(n int) float64 {
	buf := pool.GetF64Zeroed(n)
	var s float64
	for i := 0; i < n; i += 2 {
		s += buf[i]
	}
	pool.PutF64(buf)
	return s
}

// Guard: annotated ownership transfer — the caller releases.
//
//dmml:owns-scratch
func ownsScratch(n int) []float64 {
	out := pool.GetF64(n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// Guard: acquire+release both inside the loop body is balanced.
func perIterationBalanced(n, iters int) float64 {
	var s float64
	for i := 0; i < iters; i++ {
		buf := pool.GetF64(n)
		s += buf[0]
		pool.PutF64(buf)
	}
	return s
}

// Guard: release inside a deferred closure counts.
func deferClosureRelease(n int) float64 {
	buf := pool.GetF64(n)
	defer func() {
		pool.PutF64(buf)
	}()
	return buf[0]
}
