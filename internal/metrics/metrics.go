// Package metrics is dmml's engine-wide observability substrate: a
// low-overhead, concurrency-safe registry of counters, gauges, and
// duration histograms, plus a lightweight span API for parent/child
// operator timing (see span.go).
//
// Design constraints, in priority order:
//
//  1. Disabled means free. Collection is off by default; every increment
//     path starts with one atomic-bool load and returns. Instrumented
//     kernels (la, compress, pool, opt, paramserver, storage) run at full
//     speed when nobody is watching.
//  2. Zero allocations on the hot path, enabled or not. Counter.Add,
//     Gauge.Set, Histogram.Observe, and Timer stopwatches never touch the
//     heap; the alloc_test pins this with testing.AllocsPerRun.
//  3. No coordination on the hot path. Instruments are lock-striped:
//     each holds a small array of cache-line-padded atomic cells and a
//     writer picks a stripe from its own stack address, so goroutines on
//     different stacks land on different cache lines instead of bouncing
//     one counter line between cores. Readers (Snapshot, Value) merge the
//     stripes.
//
// Instruments are created once at package init via NewCounter/NewGauge/
// NewTimer/NewHistogram (get-or-create by name, so double registration is
// safe) and held in package-level vars at the call sites. The registry is
// global: one process, one engine, one set of instruments — mirroring how
// SystemML's -stats instruments its single runtime.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// enabled gates all collection. Off by default: dmml is a library first,
// and unobserved runs must not pay for observability.
var enabled atomic.Bool

// Enable turns collection on process-wide (dmml -stats, dmmlbench -metrics).
func Enable() { enabled.Store(true) }

// Disable turns collection off. Already-recorded values are retained.
func Disable() { enabled.Store(false) }

// Enabled reports whether collection is on. Exposed so call sites can skip
// building expensive labels/spans when nobody is collecting.
func Enabled() bool { return enabled.Load() }

// numStripes is the stripe count per instrument. 8 padded int64 cells cost
// 512 B per counter — irrelevant for the few dozen engine instruments —
// and are enough to keep a machine's worth of workers off each other's
// cache lines.
const numStripes = 8

// padCell is one cache-line-padded atomic cell of a striped instrument.
type padCell struct {
	v atomic.Int64
	_ [56]byte // pad to 64 B so adjacent stripes never share a line
}

// stripeIdx picks this goroutine's stripe from the address of a stack
// variable: goroutine stacks are distinct allocations, so the high bits of
// a stack address spread goroutines across stripes while staying stable
// within one call frame depth. The unsafe.Pointer is converted to uintptr
// immediately and never stored, so b does not escape.
//dmml:noalloc
func stripeIdx() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>9) & (numStripes - 1)
}

// Counter is a monotonically increasing striped int64. Increments are one
// atomic add on a goroutine-local-ish cache line; reads merge the stripes.
type Counter struct {
	name    string
	stripes [numStripes]padCell
}

// Add increments the counter by n. No-op (one atomic load) when collection
// is disabled. Never allocates.
//dmml:noalloc
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.stripes[stripeIdx()].v.Add(n)
}

// Inc increments the counter by 1.
//dmml:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value merges the stripes into the current total.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

func (c *Counter) reset() {
	for i := range c.stripes {
		c.stripes[i].v.Store(0)
	}
}

// Gauge is a last-write-wins float64 (queue depth, compression ratio,
// current loss). A single atomic cell: gauges are set at coarse points,
// not in inner loops, so striping would only blur the "current value"
// semantics.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v. No-op when collection is disabled. Never allocates.
//dmml:noalloc
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// registry is the process-global instrument table. Creation takes a lock;
// increments never do.
var registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

func init() {
	registry.counters = make(map[string]*Counter)
	registry.gauges = make(map[string]*Gauge)
	registry.hists = make(map[string]*Histogram)
	registry.timers = make(map[string]*Timer)
}

// NewCounter returns the counter registered under name, creating it on
// first use. Call at package init and keep the pointer; the per-call map
// lookup is for registration only, never the increment path.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// NewGauge returns the gauge registered under name, creating it on first use.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	return g
}

// NewHistogram returns the histogram registered under name, creating it on
// first use.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	registry.hists[name] = h
	return h
}

// NewTimer returns the timer registered under name, creating it on first
// use. Spans (span.go) resolve their timers through this, so a span name
// and a NewTimer call site with the same name share one instrument.
func NewTimer(name string) *Timer {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if t, ok := registry.timers[name]; ok {
		return t
	}
	t := &Timer{name: name}
	registry.timers[name] = t
	return t
}

// Reset zeroes every registered instrument (instruments stay registered).
// Tests and long-lived servers use it to scope a measurement window.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.reset()
	}
	for _, g := range registry.gauges {
		g.reset()
	}
	for _, h := range registry.hists {
		h.reset()
	}
	for _, t := range registry.timers {
		t.reset()
	}
}

// sortedNames returns the keys of a string-keyed map in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
