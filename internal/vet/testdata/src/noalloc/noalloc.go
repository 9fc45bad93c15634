// Package noalloc is the golden diagnostic package for the noalloc
// analyzer: every allocating construct seeded in a //dmml:noalloc flow,
// plus the allowed idioms (pool scratch, metrics by fiat, math, capacity
// reuse, constant folding) that must stay silent.
package noalloc

import (
	"fmt"
	"math"
	"strconv"

	"dmml/internal/metrics"
	"dmml/internal/pool"
)

// ---- seeded allocating constructs ----

//dmml:noalloc
func usesMake(n int) float64 {
	buf := make([]float64, n) // want `make in //dmml:noalloc flow of usesMake`
	return buf[0]
}

//dmml:noalloc
func usesNew() *int {
	return new(int) // want `new in //dmml:noalloc flow of usesNew`
}

//dmml:noalloc
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal in //dmml:noalloc flow of sliceLit`
}

//dmml:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation in //dmml:noalloc flow of concat`
}

//dmml:noalloc
func capture(n int) func() int {
	return func() int { return n } // want `closure captures variable "n" \(heap-allocates the closure\) in //dmml:noalloc flow of capture`
}

//dmml:noalloc
func growAppend(s []float64, v float64) []float64 {
	return append(s, v) // want `append \(may grow the backing array\) in //dmml:noalloc flow of growAppend`
}

//dmml:noalloc
func mapWrite(m map[string]int, k string) {
	m[k] = 1 // want `map write \(may grow the map\) in //dmml:noalloc flow of mapWrite`
}

//dmml:noalloc
func boxValue(v float64) {
	var sink interface{}
	sink = v // want `interface boxing of non-pointer value \(float64`
	_ = sink
}

//dmml:noalloc
func toBytes(s string) int {
	b := []byte(s) // want `string <-> slice conversion in //dmml:noalloc flow of toBytes`
	return len(b)
}

//dmml:noalloc
func dynamic(f func() int) int {
	return f() // want `dynamic call through a function value \(cannot be proven allocation-free\) in //dmml:noalloc flow of dynamic`
}

func spin() {}

//dmml:noalloc
func spawns() {
	go spin() // want `go statement \(spawns a goroutine\) in //dmml:noalloc flow of spawns`
}

func variadicFn(vs ...int) int {
	t := 0
	for _, v := range vs {
		t += v
	}
	return t
}

//dmml:noalloc
func callsVariadic() int {
	return variadicFn(1, 2) // want `variadic call to variadicFn materializes its argument slice in //dmml:noalloc flow of callsVariadic`
}

// helperAllocates is NOT annotated: the transitive audit must find the make
// inside it and summarize at the annotated caller's call site.
func helperAllocates(n int) []float64 {
	return make([]float64, n)
}

//dmml:noalloc
func callsDirty(n int) float64 {
	return helperAllocates(n)[0] // want `calls helperAllocates, which allocates: make at .* in //dmml:noalloc flow of callsDirty`
}

//dmml:noalloc
func outside(n int) string {
	return strconv.Itoa(n) // want `call to strconv.Itoa, outside the audited set \(not provably allocation-free\) in //dmml:noalloc flow of outside`
}

// ---- false-positive guards: every one of these must stay silent ----

//dmml:noalloc
func cleanKernel(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

// Guard: the scratch-pool API is allowed by fiat.
//
//dmml:noalloc
func usesScratch(n int) float64 {
	buf := pool.GetF64Zeroed(n)
	s := buf[0]
	pool.PutF64(buf)
	return s
}

func helperClean(x float64) float64 {
	return x * 2
}

// Guard: unannotated module-internal callees are audited transitively and
// stay silent when clean.
//
//dmml:noalloc
func callsCleanHelper(x float64) float64 {
	return helperClean(x)
}

// Guard: an annotated callee is audited at its own declaration, not again
// at the call site.
//
//dmml:noalloc
func callsAnnotated(n int) float64 {
	return usesScratch(n)
}

// Guard: append onto an explicit reslice reuses capacity.
//
//dmml:noalloc
func reuseAppend(s []float64, v float64) []float64 {
	return append(s[:0], v)
}

// Guard: constant concatenation folds at compile time.
//
//dmml:noalloc
func constConcat() string {
	const name = "vet." + "noalloc"
	return name
}

// Guard: allocations feeding a panic are off the steady-state path — the
// engine's fmt.Sprintf length-check panics stay legal in annotated kernels.
//
//dmml:noalloc
func panicPath(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("noalloc: bad n %d", n))
	}
	return n * 2
}

var kernelCounter = metrics.NewCounter("vet.noalloc.kernel")

// Guard: metrics instruments are engineered zero-alloc and allowed by fiat.
//
//dmml:noalloc
func instrumented(x float64) float64 {
	kernelCounter.Inc()
	return x + 1
}

// ---- compiled-kernel discipline: closures must not capture per-call state ----

// kernelCtx mimics the compiled fusion backend's per-call context: inputs
// travel through a pooled struct, never through closure captures.
type kernelCtx struct{ xs []float64 }

// Guard: the clean compiled-kernel pattern. The constructor runs once at
// compile time, so it is deliberately NOT annotated (the closure it builds
// may allocate there); the closure captures only the compile-time constant
// scale and reads all per-call state from ctx, so annotated callers of the
// built kernel stay allocation-free.
func buildScaleKernel(scale float64) func(*kernelCtx, int) float64 {
	return func(c *kernelCtx, i int) float64 { return c.xs[i] * scale }
}

var _ = buildScaleKernel

// Seeded violation: a kernel that closes over its per-call argument
// heap-allocates a fresh closure on every invocation — the exact bug the
// compiled backend's zero-alloc contract forbids.
//
//dmml:noalloc
func capturesPerCallState(xs []float64) func(int) float64 {
	return func(i int) float64 { return xs[i] } // want `closure captures variable "xs" \(heap-allocates the closure\) in //dmml:noalloc flow of capturesPerCallState`
}

// ---- assembly leaves: body-less declarations (this package has a .s file) ----

// sumAsm is implemented in noalloc.s and annotated: a leaf.
//
//dmml:noalloc
func sumAsm(xs []float64) float64

// scaleAsm is implemented in noalloc.s but not annotated.
func scaleAsm(xs []float64, a float64)

// Guard: an annotated assembly leaf in a package with a .s file is accepted.
//
//dmml:noalloc
func callsAsmLeaf(xs []float64) float64 {
	return sumAsm(xs)
}

//dmml:noalloc
func callsUnannotatedAsm(xs []float64) {
	scaleAsm(xs, 2) // want `call to scaleAsm whose body is not available for audit in //dmml:noalloc flow of callsUnannotatedAsm`
}
