// Command loadtest drives a dmmlserve instance and reports throughput and
// client-observed latency quantiles (p50/p99/p999 via the metrics
// histogram Quantile estimator).
//
// Two load shapes:
//
//	-mode closed   each connection keeps -pipeline requests in flight and
//	               sends the next as each response lands (throughput probe)
//	-mode open     each connection sends at a fixed rate (-rate is the
//	               total target QPS) regardless of responses (latency probe)
//
// With -selfserve it starts the server in-process on 127.0.0.1:0 with the
// demo models — the one-command smoke test used by `make serve-smoke`:
//
//	loadtest -selfserve -conns 8 -duration 2s
//
// Under -selfserve loadtest logged the model itself, so it also checks every
// answer: a response whose value is not bit-equal to la.ScoreRow over the
// logged weights, bias and link counts as an error. Exit status is non-zero
// if any request fails.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmml/internal/la"
	"dmml/internal/metrics"
	"dmml/internal/modeldb"
	"dmml/internal/serve"
)

var (
	hLat    = metrics.NewHistogram("loadtest.latency.us")
	nOK     atomic.Int64
	nErr    atomic.Int64
	errOnce sync.Once
	// wantValue is the expected score of the fixed row, set under
	// -selfserve before any connection starts; NaN leaves answers unchecked.
	wantValue = math.NaN()
)

func fail(format string, args ...any) {
	nErr.Add(1)
	errOnce.Do(func() { log.Printf("loadtest: first error: "+format, args...) })
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "dmmlserve address")
	model := flag.String("model", serve.DemoChurnModel, "model name to score")
	dim := flag.Int("dim", serve.DemoChurnDim, "feature dimension of -model")
	conns := flag.Int("conns", 4, "concurrent connections")
	duration := flag.Duration("duration", 3*time.Second, "load duration")
	mode := flag.String("mode", "closed", "load shape: closed or open")
	pipeline := flag.Int("pipeline", 16, "closed loop: in-flight requests per connection")
	rate := flag.Float64("rate", 10000, "open loop: total target requests/sec")
	selfserve := flag.Bool("selfserve", false, "start an in-process demo server on 127.0.0.1:0")
	maxBatch := flag.Int("max-batch", 256, "selfserve: max rows per kernel call")
	linger := flag.Duration("linger", 0, "selfserve: fixed coalescing window")
	flag.Parse()

	metrics.Enable()

	row := make([]float64, *dim)
	for i := range row {
		row[i] = float64(i%7) * 0.25
	}

	target := *addr
	if *selfserve {
		store := modeldb.NewStore()
		if err := serve.LogDemoModels(store); err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		run, err := store.Latest(*model)
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		if len(run.Weights) != *dim {
			log.Fatalf("loadtest: model %q has %d features, -dim is %d", *model, len(run.Weights), *dim)
		}
		link := la.LinkIdentity
		if slices.Contains(run.Tags, "link:logistic") {
			link = la.LinkLogistic
		}
		wantValue = la.ScoreRow(row, run.Weights, run.Config["bias"], link)
		s, err := serve.New(serve.Config{
			Addr: "127.0.0.1:0", Store: store, MaxBatch: *maxBatch, Linger: *linger,
		})
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		go s.Serve()
		defer s.Shutdown()
		target = s.Addr().String()
		log.Printf("loadtest: self-serving demo models on %s", target)
	}

	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(*duration)
	for g := 0; g < *conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch *mode {
			case "closed":
				closedLoop(target, *model, row, *pipeline, end)
			case "open":
				openLoop(target, *model, row, *rate/float64(*conns), end)
			default:
				log.Fatalf("loadtest: unknown -mode %q", *mode)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	ok, errs := nOK.Load(), nErr.Load()
	qps := float64(ok) / elapsed.Seconds()
	snap := hLat.Snapshot()
	fmt.Printf("loadtest: mode=%s conns=%d model=%s dim=%d duration=%s\n",
		*mode, *conns, *model, *dim, elapsed.Round(time.Millisecond))
	fmt.Printf("  %d ok, %d errors, %.0f qps\n", ok, errs, qps)
	fmt.Printf("  latency: p50=%s p99=%s p999=%s max=%s\n",
		us(snap.Quantile(0.50)), us(snap.Quantile(0.99)),
		us(snap.Quantile(0.999)), us(float64(snap.Max)))

	if errs > 0 {
		log.Printf("loadtest: FAIL: %d errors", errs)
		os.Exit(1)
	}
}

func us(v float64) time.Duration {
	return (time.Duration(v) * time.Microsecond).Round(time.Microsecond)
}

func observe(resp serve.Response, start time.Time) {
	hLat.Observe(time.Since(start).Microseconds())
	if resp.Status != serve.StatusOK {
		fail("status 0x%02x: %s", resp.Status, resp.Msg)
		return
	}
	if !math.IsNaN(wantValue) && resp.Value != wantValue {
		fail("wrong score %v, want %v", resp.Value, wantValue)
		return
	}
	nOK.Add(1)
}

// closedLoop keeps depth requests in flight on one connection: prime the
// window, then send one more as each response arrives. Stops issuing at
// end and drains the window.
func closedLoop(addr, model string, row []float64, depth int, end time.Time) {
	c, err := serve.Dial(addr, 5*time.Second)
	if err != nil {
		fail("dial: %v", err)
		return
	}
	defer c.Close()
	starts := make(map[uint64]time.Time, depth)
	send := func() bool {
		id, err := c.Send(model, row)
		if err != nil {
			fail("send: %v", err)
			return false
		}
		starts[id] = time.Now()
		return true
	}
	for i := 0; i < depth; i++ {
		if !send() {
			return
		}
	}
	if err := c.Flush(); err != nil {
		fail("flush: %v", err)
		return
	}
	for len(starts) > 0 {
		resp, err := c.Recv()
		if err != nil {
			fail("recv: %v", err)
			return
		}
		t0, seen := starts[resp.ID]
		if !seen {
			fail("unknown response id %d", resp.ID)
			return
		}
		delete(starts, resp.ID)
		observe(resp, t0)
		if time.Now().Before(end) {
			if !send() {
				return
			}
			if err := c.Flush(); err != nil {
				fail("flush: %v", err)
				return
			}
		}
	}
}

// openLoop sends at a fixed per-connection rate while a separate receiver
// goroutine drains responses — latency under a load the server does not
// control. Client supports exactly this split (one sender, one receiver).
func openLoop(addr, model string, row []float64, rate float64, end time.Time) {
	if rate <= 0 {
		fail("open loop needs -rate > 0")
		return
	}
	c, err := serve.Dial(addr, 5*time.Second)
	if err != nil {
		fail("dial: %v", err)
		return
	}
	defer c.Close()

	var mu sync.Mutex
	starts := make(map[uint64]time.Time)
	// One token per sent request: the receiver does exactly one Recv per
	// token (the server answers every admitted request), so it can never
	// block on a response that is not coming, and exits when the channel
	// closes after the last send.
	tokens := make(chan struct{}, 1<<16)

	go func() {
		defer close(tokens)
		// Pace against an ideal schedule and catch up in bursts: coarse
		// timer wakeups (~1ms on Linux) would otherwise silently cap the
		// achieved rate far below the target at sub-millisecond intervals.
		interval := max(time.Duration(float64(time.Second)/rate), time.Microsecond)
		next := time.Now()
		for {
			now := time.Now()
			if now.After(end) {
				return
			}
			for !next.After(now) {
				id, err := c.Send(model, row)
				if err != nil {
					fail("send: %v", err)
					return
				}
				mu.Lock()
				starts[id] = time.Now()
				mu.Unlock()
				tokens <- struct{}{}
				next = next.Add(interval)
			}
			if err := c.Flush(); err != nil {
				fail("flush: %v", err)
				return
			}
			time.Sleep(time.Until(next))
		}
	}()

	for range tokens {
		resp, err := c.Recv()
		if err != nil {
			fail("recv: %v", err)
			return
		}
		mu.Lock()
		t0, seen := starts[resp.ID]
		delete(starts, resp.ID)
		mu.Unlock()
		if !seen {
			fail("unknown response id %d", resp.ID)
			return
		}
		observe(resp, t0)
	}
}
