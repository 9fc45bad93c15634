// Command dmmlserve runs the batched online inference server over a
// modeldb registry. It listens on a TCP address speaking the compact
// binary protocol in internal/serve, coalesces concurrent predict
// requests per model into pooled batched kernels, and hot-reloads newly
// logged model versions without dropping in-flight requests.
//
// Usage:
//
//	dmmlserve [-addr :7077] [-db runs.json] [-demo] [-poll 2s]
//	          [-max-batch 256] [-stats 5s]
//
// With -db the registry is loaded from a modeldb JSON snapshot; -demo
// logs two deterministic demo models (use it with loadtest). SIGINT or
// SIGTERM triggers a graceful drain: stop accepting, answer and flush
// every admitted request, then exit 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmml/internal/metrics"
	"dmml/internal/modeldb"
	"dmml/internal/serve"
)

func main() {
	addr := flag.String("addr", ":7077", "TCP listen address")
	dbPath := flag.String("db", "", "modeldb JSON snapshot to serve from")
	demo := flag.Bool("demo", false, "log deterministic demo models (churn, linear)")
	poll := flag.Duration("poll", 2*time.Second, "model reload poll interval (0 disables)")
	maxBatch := flag.Int("max-batch", 256, "max rows per scoring kernel call")
	stats := flag.Duration("stats", 0, "print serving stats at this interval (0 disables)")
	flag.Parse()

	store, err := openStore(*dbPath, *demo)
	if err != nil {
		log.Fatalf("dmmlserve: %v", err)
	}
	if store.NumRuns() == 0 {
		log.Fatal("dmmlserve: registry is empty; pass -db or -demo")
	}

	s, err := serve.New(serve.Config{
		Addr:         *addr,
		Store:        store,
		MaxBatch:     *maxBatch,
		PollInterval: *poll,
	})
	if err != nil {
		log.Fatalf("dmmlserve: %v", err)
	}
	log.Printf("dmmlserve: %d runs loaded, listening on %s", store.NumRuns(), s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("dmmlserve: draining (in-flight requests will be answered)")
		s.Shutdown()
	}()

	if *stats > 0 {
		metrics.Enable()
		go statsLoop(*stats)
	}

	if err := s.Serve(); !serve.IsClosedErr(err) {
		log.Fatalf("dmmlserve: %v", err)
	}
	log.Print("dmmlserve: drained, bye")
}

func openStore(path string, demo bool) (*modeldb.Store, error) {
	store := modeldb.NewStore()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if store, err = modeldb.Load(f); err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
	}
	if demo {
		if err := serve.LogDemoModels(store); err != nil {
			return nil, err
		}
	}
	return store, nil
}

func statsLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastPred int64
	for range t.C {
		snap := metrics.TakeSnapshot()
		var req, pred, errs, batches int64
		for _, c := range snap.Counters {
			switch c.Name {
			case "serve.requests":
				req = c.Value
			case "serve.predictions":
				pred = c.Value
			case "serve.errors":
				errs = c.Value
			case "serve.batches":
				batches = c.Value
			}
		}
		qps := float64(pred-lastPred) / every.Seconds()
		lastPred = pred
		rowsPerBatch := 0.0
		var p99 time.Duration
		for _, h := range snap.Histograms {
			if h.Name == "serve.batch.rows" && h.Count > 0 {
				rowsPerBatch = h.Mean
			}
		}
		for _, tm := range snap.Timers {
			if tm.Name == "serve.Request" {
				p99 = time.Duration(tm.Quantile(0.99))
			}
		}
		log.Printf("dmmlserve: %.0f qps | req=%d ok=%d err=%d | batches=%d (%.1f rows/batch) | p99=%s",
			qps, req, pred, errs, batches, rowsPerBatch, p99)
	}
}
