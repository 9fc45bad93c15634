package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmml/internal/la"
	"dmml/internal/metrics"
	"dmml/internal/modeldb"
)

func logModel(t testing.TB, store *modeldb.Store, name string, weights []float64, bias float64, logistic bool) modeldb.Run {
	t.Helper()
	spec := modeldb.Spec{
		Name:     name,
		Weights:  weights,
		Config:   map[string]float64{"bias": bias},
		ParentID: -1,
	}
	if logistic {
		spec.Tags = []string{"link:logistic"}
	}
	run, err := store.Log(spec)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *modeldb.Store) {
	t.Helper()
	store := modeldb.NewStore()
	cfg := Config{Addr: "127.0.0.1:0", Store: store}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(s.Shutdown)
	return s, store
}

func dialTest(t testing.TB, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServePredictEndToEnd(t *testing.T) {
	s, store := newTestServer(t, nil)
	wLin := []float64{1, -2, 3}
	wLog := []float64{0.5, 0.25}
	logModel(t, store, "linreg", wLin, 0.75, false)
	logModel(t, store, "logreg", wLog, -0.5, true)

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				rowLin := []float64{float64(g), float64(i), 0.5}
				resp, err := c.Predict("linreg", rowLin)
				if err != nil {
					errs <- err
					return
				}
				want := la.ScoreRow(rowLin, wLin, 0.75, la.LinkIdentity)
				if resp.Status != StatusOK || math.Abs(resp.Value-want) > 1e-12 {
					errs <- fmt.Errorf("linreg: %+v, want value %v", resp, want)
					return
				}
				if resp.ModelVersion != 1 {
					errs <- fmt.Errorf("linreg version = %d, want 1", resp.ModelVersion)
					return
				}
				rowLog := []float64{float64(i) * 0.1, -float64(g)}
				resp, err = c.Predict("logreg", rowLog)
				if err != nil {
					errs <- err
					return
				}
				want = la.ScoreRow(rowLog, wLog, -0.5, la.LinkLogistic)
				if resp.Status != StatusOK || math.Abs(resp.Value-want) > 1e-12 {
					errs <- fmt.Errorf("logreg: %+v, want value %v", resp, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeErrorStatuses(t *testing.T) {
	s, store := newTestServer(t, nil)
	logModel(t, store, "m", []float64{1, 2}, 0, false)

	c := dialTest(t, s)
	resp, err := c.Predict("nope", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNoModel || resp.Msg == "" {
		t.Fatalf("unknown model: %+v", resp)
	}
	resp, err = c.Predict("m", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Fatalf("wrong dimension: %+v", resp)
	}
	// The connection stays usable after per-request errors.
	resp, err = c.Predict("m", []float64{3, 4})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("valid after errors: %+v, %v", resp, err)
	}
	if want := la.ScoreRow([]float64{3, 4}, []float64{1, 2}, 0, la.LinkIdentity); resp.Value != want {
		t.Fatalf("value = %v, want %v", resp.Value, want)
	}
}

func TestServeModelLoggedAfterStart(t *testing.T) {
	s, store := newTestServer(t, nil)
	c := dialTest(t, s)
	if resp, err := c.Predict("late", []float64{1}); err != nil || resp.Status != StatusNoModel {
		t.Fatalf("before log: %+v, %v", resp, err)
	}
	logModel(t, store, "late", []float64{2}, 0, false)
	resp, err := c.Predict("late", []float64{3})
	if err != nil || resp.Status != StatusOK || resp.Value != 6 {
		t.Fatalf("after log: %+v, %v", resp, err)
	}
}

func TestServeMalformedFrameClosesConn(t *testing.T) {
	s, store := newTestServer(t, nil)
	logModel(t, store, "m", []float64{1}, 0, false)
	c := dialTest(t, s)
	// A syntactically valid frame whose payload is garbage: the server
	// answers StatusBadRequest and hangs up (the stream may be desynced).
	bad := make([]byte, lenPrefix+headerLen)
	lePutU32(bad, headerLen)
	lePutU16(bad[lenPrefix:], 0xBEEF) // wrong magic
	if _, err := c.nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recv()
	if err != nil || resp.Status != StatusBadRequest {
		t.Fatalf("malformed frame: %+v, %v", resp, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection stayed open after protocol error")
	}
}

// TestBatchingCoalesces proves the admission stage batches: requests queued
// before the worker wakes are scored by a single drain, in MaxBatch-row
// chunks, and every answer is bit-equal to la.ScoreRow and correlated by
// request ID.
func TestBatchingCoalesces(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() { metrics.Disable(); metrics.Reset() }()

	const n, maxBatch = 10, 4 // chunks of 4, 4 and 2 rows
	w := []float64{2, 0.5, -1}
	q := &modelQueue{name: "m", wake: make(chan struct{}, 1)}
	q.hot.Store(&hotModel{name: "m", version: 1, dim: len(w), weights: w, bias: 1, link: la.LinkLogistic})
	c := &srvConn{out: make(chan Response, n)}
	want := map[uint64]float64{}
	for i := 0; i < n; i++ {
		row := []float64{float64(i), -0.25 * float64(i), 1}
		id := uint64(100 + i)
		c.pending.Add(1)
		if !q.enqueue(c, id, row, time.Now()) {
			t.Fatalf("request %d refused", id)
		}
		want[id] = la.ScoreRow(row, w, 1, la.LinkLogistic)
	}

	s := &Server{cfg: Config{MaxBatch: maxBatch}}
	stop := make(chan struct{})
	s.workerWG.Add(1)
	go q.loop(s, stop)
	for i := 0; i < n; i++ {
		resp := <-c.out
		wv, ok := want[resp.ID]
		if !ok || resp.Status != StatusOK || resp.Value != wv {
			t.Fatalf("bad response %+v (want %v)", resp, wv)
		}
		delete(want, resp.ID)
	}
	close(stop)
	s.workerWG.Wait()

	if snap := hBatchRows.Snapshot(); snap.Count != 1 || snap.Sum != n {
		t.Fatalf("drains = %d scoring %d rows, want one drain of %d", snap.Count, snap.Sum, n)
	}
}

// TestReloadSwapsWithoutDrops is the drain/reload acceptance test: logging
// a new model version mid-load and calling Reload must swap the weights
// with zero dropped or misrouted in-flight requests — every response is
// StatusOK and its value matches the version stamped on it.
func TestReloadSwapsWithoutDrops(t *testing.T) {
	s, store := newTestServer(t, nil)
	const dim = 4
	w1 := []float64{1, 1, 1, 1}
	w2 := []float64{2, 2, 2, 2}
	logModel(t, store, "hot", w1, 0.5, false)

	const clients = 6
	var sawV2 atomic.Int64
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			row := make([]float64, dim)
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				for j := range row {
					row[j] = float64(i+j) * 0.25
				}
				resp, err := c.Predict("hot", row)
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != StatusOK {
					errs <- fmt.Errorf("dropped in-flight request: %+v", resp)
					return
				}
				var want float64
				switch resp.ModelVersion {
				case 1:
					want = la.ScoreRow(row, w1, 0.5, la.LinkIdentity)
				case 2:
					want = la.ScoreRow(row, w2, -0.5, la.LinkIdentity)
					sawV2.Add(1)
				default:
					errs <- fmt.Errorf("impossible version %d", resp.ModelVersion)
					return
				}
				if math.Abs(resp.Value-want) > 1e-12 {
					errs <- fmt.Errorf("misrouted: version %d value %v, want %v",
						resp.ModelVersion, resp.Value, want)
					return
				}
			}
		}(g)
	}

	// Mid-load: log version 2 and hot-swap, then keep the load running
	// until the new version is actually observed in responses.
	time.Sleep(10 * time.Millisecond)
	logModel(t, store, "hot", w2, -0.5, false)
	if swapped := s.Reload(); swapped != 1 {
		t.Errorf("Reload swapped %d models, want 1", swapped)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sawV2.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sawV2.Load() == 0 {
		t.Fatal("new version never served after reload")
	}
	s.qmu.RLock()
	q := s.queues["hot"]
	s.qmu.RUnlock()
	if m := q.hot.Load(); m.version != 2 {
		t.Fatalf("hot snapshot version = %d, want 2", m.version)
	}
}

// TestPollLoopPicksUpNewVersion covers the background reload path end to
// end: with PollInterval set, a newly logged version becomes servable with
// no explicit Reload call.
func TestPollLoopPicksUpNewVersion(t *testing.T) {
	s, store := newTestServer(t, func(c *Config) { c.PollInterval = 5 * time.Millisecond })
	logModel(t, store, "m", []float64{1}, 0, false)
	c := dialTest(t, s)
	if resp, err := c.Predict("m", []float64{5}); err != nil || resp.Value != 5 {
		t.Fatalf("v1: %+v, %v", resp, err)
	}
	logModel(t, store, "m", []float64{10}, 0, false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := c.Predict("m", []float64{5})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ModelVersion == 2 {
			if resp.Value != 50 {
				t.Fatalf("v2 value = %v, want 50", resp.Value)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("poll loop never swapped to version 2")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrains checks the drain invariant with server-side counters:
// after Shutdown returns, every admitted request has been answered
// (requests == predictions + errors) and Serve has returned net.ErrClosed.
func TestShutdownDrains(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() { metrics.Disable(); metrics.Reset() }()

	store := modeldb.NewStore()
	logModel(t, store, "m", []float64{1, 1}, 0, false)
	s, err := New(Config{Addr: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()

	const clients = 4
	var wg sync.WaitGroup
	var okCount atomic.Int64
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			row := []float64{1, 2}
			for {
				resp, err := c.Predict("m", row)
				if err != nil {
					return // connection drained and closed by shutdown
				}
				if resp.Status != StatusOK || resp.Value != 3 {
					t.Errorf("bad response during shutdown: %+v", resp)
					return
				}
				okCount.Add(1)
			}
		}()
	}

	time.Sleep(30 * time.Millisecond) // let load build
	s.Shutdown()
	wg.Wait()

	if err := <-serveErr; !IsClosedErr(err) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	if okCount.Load() == 0 {
		t.Fatal("no requests completed before shutdown")
	}
	req, ok, errs := mRequests.Value(), mPredictions.Value(), mErrors.Value()
	if req != ok+errs {
		t.Fatalf("dropped in flight: admitted %d != answered %d+%d", req, ok, errs)
	}
	// Shutdown is idempotent.
	s.Shutdown()
}
