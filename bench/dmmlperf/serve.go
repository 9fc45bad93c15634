package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmml/bench/trace"
	"dmml/internal/la"
	"dmml/internal/modeldb"
	"dmml/internal/serve"
)

// serve_saturated: callers that wait for replies. A fixed number of requests
// in flight per connection (closedPhase), beside a writer that logs new model
// versions and reloads them. Independent callers (openPhase: Poisson arrivals
// at a fixed rate, latency from the instant each request was due) are measured
// by the traced run only, as per-layer figures: on a shared two-vCPU guest
// their median follows the host (40 us on a quiet one, 70 us for minutes on a
// busy one), which no bound of a quarter holds.

const (
	narrow = 0 // d=16, logistic link
	wide   = 1 // d=512, identity link

	inFlightPerConn = 32
	reloadEvery     = 200 * time.Millisecond
	traceEveryNth   = 64   // requests whose spans the traced run keeps
	predictTol      = 1e-9 // batched GEMV may reassociate the dot product
	maxVersions     = 4096
	yieldAbove      = 30000 // ns to the next due request above which the generator yields its processor
)

// sweepRates are the offered rates of the traced run's open-loop sweep; the
// latencies at the first and the third are reported by name.
var sweepRates = []float64{20000, 40000, 60000, 80000, 120000}

// openWideMix is the share of wide requests in the sweep; the closed loop
// sends half and half.
const openWideMix = 0.2

type servedModel struct {
	name string
	dim  int
	link la.Link
	tags []string
	bias float64
	w    []float64   // version 1; later versions derive from it (weightsFor)
	rows [][]float64 // the distinct request rows
}

// versionTable is the reference for one logged version: the prediction of
// every distinct row of both models, computed with la.ScoreRow from the
// weights that were logged.
type versionTable struct {
	expect [2][]float64
}

type serveInstance struct {
	cfg      config
	wideMix  float64 // share of requests that go to the wide model
	models   [2]*servedModel
	store    *modeldb.Store
	srv      *serve.Server
	served   chan struct{} // closed when Serve returns
	addr     string
	clients  []*serve.Client
	sent     []uint64 // per client: requests sent so far, which is the last id it assigned
	phase    int64    // phases measured so far; seeds each phase's schedule
	tables   []atomic.Pointer[versionTable]
	version  int32           // last version logged (writer goroutine only)
	logged   [2]atomic.Int32 // per model: highest version handed to Store.Log
	reloaded atomic.Int32    // highest version a completed Reload has made servable
	// tamper, set only by the test that proves the reference check is live,
	// alters a version's weights after its reference is computed and before
	// they are logged.
	tamper func(w []float64)
}

func setupServe(cfg config, _ string) (inst instance, err error) {
	s := &serveInstance{cfg: cfg, wideMix: 0.5, tables: make([]atomic.Pointer[versionTable], maxVersions)}
	nRows := 1024
	if cfg.smoke {
		nRows = 64
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	s.models[narrow] = newServedModel(rng, "narrow", 16, la.LinkLogistic, nRows)
	s.models[wide] = newServedModel(rng, "wide", 512, la.LinkIdentity, nRows)
	s.store = modeldb.NewStore()
	if _, err := s.logVersion(nil); err != nil {
		return nil, err
	}
	s.reloaded.Store(1)
	s.srv, err = serve.New(serve.Config{Addr: "127.0.0.1:0", Store: s.store, MaxBatch: 256})
	if err != nil {
		return nil, err
	}
	s.addr = s.srv.Addr().String()
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve() // returns once Shutdown closes the listener
	}()
	for g := 0; g < min(runtime.NumCPU(), 4); g++ {
		c, err := serve.Dial(s.addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, c)
		s.sent = append(s.sent, 0)
	}
	warm := 500 * time.Millisecond
	if cfg.smoke {
		warm = 50 * time.Millisecond
	}
	m, err := s.measure(warm, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if m.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", m.failed, m.attempted)
	}
	return s, nil
}

func newServedModel(rng *rand.Rand, name string, dim int, link la.Link, nRows int) *servedModel {
	m := &servedModel{name: name, dim: dim, link: link, bias: rng.NormFloat64() / 4, w: make([]float64, dim), rows: make([][]float64, nRows)}
	if link == la.LinkLogistic {
		m.tags = []string{"link:logistic"}
	}
	for j := range m.w {
		m.w[j] = rng.NormFloat64() / math.Sqrt(float64(dim))
	}
	for i := range m.rows {
		m.rows[i] = make([]float64, dim)
		for j := range m.rows[i] {
			m.rows[i][j] = rng.NormFloat64()
		}
	}
	return m
}

// weightsFor derives version v's weights from version 1's.
func (m *servedModel) weightsFor(v int32) []float64 {
	w := make([]float64, m.dim)
	for j := range w {
		w[j] = m.w[j] * (1 + 0.02*math.Sin(float64(int(v)*131+j)))
	}
	return w
}

// logVersion logs the next version of both models. The reference table is
// published and logged[] raised before Store.Log, so a response can never
// carry a version the checker does not know yet.
func (s *serveInstance) logVersion(lane *trace.Lane) (v int32, err error) {
	s.version++
	v = s.version
	if int(v) >= len(s.tables) {
		return v, fmt.Errorf("more than %d model versions", len(s.tables))
	}
	var ws [2][]float64
	tbl := &versionTable{}
	for k, m := range s.models {
		ws[k] = m.weightsFor(v)
		tbl.expect[k] = make([]float64, len(m.rows))
		for i, row := range m.rows {
			tbl.expect[k][i] = la.ScoreRow(row, ws[k], m.bias, m.link)
		}
	}
	s.tables[v].Store(tbl)
	for k, m := range s.models {
		if s.tamper != nil {
			s.tamper(ws[k])
		}
		s.logged[k].Store(v)
		sp := lane.Begin("modeldb.log", -1, int64(v))
		run, err := s.store.Log(modeldb.Spec{Name: m.name, Weights: ws[k], Config: map[string]float64{"bias": m.bias}, Tags: m.tags, ParentID: -1})
		lane.End(sp)
		if err != nil {
			return v, err
		}
		if run.Version != int(v) {
			return v, fmt.Errorf("model %s logged as version %d, want %d", m.name, run.Version, v)
		}
	}
	return v, nil
}

func (s *serveInstance) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.srv != nil {
		s.srv.Shutdown()
		<-s.served
		s.srv = nil
	}
	return nil
}

func (s *serveInstance) throughputBound() bool { return true }

func (s *serveInstance) describe() []string {
	return []string{
		fmt.Sprintf("server %s in-process, MaxBatch 256, Linger 0, no poll; %d connections", s.addr, len(s.clients)),
		fmt.Sprintf("closed loop, %d in flight per connection, both models re-logged and reloaded every %s", inFlightPerConn, reloadEvery),
		fmt.Sprintf("models narrow d=16 logistic / wide d=512 identity, mix %.0f/%.0f, %d distinct rows each",
			100*(1-s.wideMix), 100*s.wideMix, len(s.models[narrow].rows)),
	}
}

func (s *serveInstance) verify(*measurement) error { return nil } // every response is checked as it arrives

func (s *serveInstance) measure(d time.Duration, rec *trace.Recorder) (*measurement, error) {
	return s.closedPhase(d, rec)
}

// pickKey draws a request: which model, which of its rows.
func (s *serveInstance) pickKey(rng *rand.Rand) uint16 {
	k := uint16(rng.Intn(len(s.models[narrow].rows)))
	if rng.Float64() < s.wideMix {
		k |= 1 << 15
	}
	return k
}

func splitKey(k uint16) (model, row int) { return int(k >> 15), int(k &^ (1 << 15)) }

// check compares one response with the reference for the version it carries.
// vLo is the version known servable when the request was sent, vHi the highest
// version logged when the response was read.
func (s *serveInstance) check(resp serve.Response, key uint16, vLo, vHi int32) bool {
	if resp.Status != serve.StatusOK {
		return false
	}
	v := int32(resp.ModelVersion)
	if v < vLo || v > vHi {
		return false
	}
	tbl := s.tables[v].Load()
	if tbl == nil {
		return false
	}
	model, row := splitKey(key)
	want := tbl.expect[model][row]
	return math.Abs(resp.Value-want) <= predictTol*math.Max(1, math.Abs(want))
}

// windowsOf cuts a phase of length d into windows of about a second.
func windowsOf(d time.Duration) (n int, lenNs int64) {
	n = max(2, int(d.Seconds()+0.5))
	return n, int64(d) / int64(n)
}

// clampNs stores a latency in the 4 bytes a sample gets (4.29 s at most).
func clampNs(ns int64) uint32 { return uint32(min(max(ns, 0), math.MaxUint32)) }

// summarize takes each window's exact percentiles from its raw samples — the
// latencies in ns of the correct responses that fall in it — and reports the
// median window for each figure.
//
// The latency a run reports is the window's median on the open loop and its
// mean on the closed loop. With a fixed number of requests in flight the mean
// is that number divided by the throughput, whatever the order the scheduler
// serves them in; the median is not. It depends on which of the goroutines that
// share the saturated processors the scheduler favours, and across runs of the
// same code on the driver's machine it spread by a third.
func summarize(m *measurement, lats [][]uint32, winLen int64, closed bool) {
	var mean, p50, p95, p99, p999, thr []float64
	total := 0
	for _, l := range lats {
		slices.Sort(l)
		us := func(q float64) float64 { return float64(percentile(l, q)) / 1e3 }
		p50, p95, p99, p999 = append(p50, us(0.50)), append(p95, us(0.95)), append(p99, us(0.99)), append(p999, us(0.999))
		sum := 0.0
		for _, ns := range l {
			sum += float64(ns)
		}
		mean = append(mean, ratio(sum, float64(len(l)))/1e3)
		thr = append(thr, float64(len(l))/(float64(winLen)/1e9))
		total += len(l)
	}
	m.p50ms, m.p95ms, m.p99ms, m.throughput = median(p50)/1e3, median(p95)/1e3, median(p99)/1e3, median(thr)
	m.latencyMs = m.p50ms
	if closed {
		m.latencyMs = median(mean) / 1e3
	}
	m.lastP50us = p50[len(p50)-1]
	m.lines = append(m.lines, fmt.Sprintf("per window, correct/s: %.0f", thr), fmt.Sprintf("per window, p50 us: %.1f", p50), fmt.Sprintf("per window, mean us: %.1f", mean))
	m.lines = append(m.lines, fmt.Sprintf("median of %d windows of %.2fs (%d samples): mean %.1f us, p50 %.1f us, p95 %.1f us, p99 %.1f us, p99.9 %.1f us (the last two informational), %.0f correct/s",
		len(lats), float64(winLen)/1e9, total, median(mean), median(p50), median(p95), median(p99), median(p999), median(thr)))
}

// schedule draws the next phase's arrivals from the seed: one Poisson process
// at rate for d, each arrival with its request and a random connection.
func (s *serveInstance) schedule(rate float64, d time.Duration) (due []int64, key []uint16, conn []uint8) {
	s.phase++
	rng := rand.New(rand.NewSource(s.cfg.seed*7919 + s.phase*101))
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, int64(t*1e9)) // ns from phase start, ascending
		key = append(key, s.pickKey(rng))
		conn = append(conn, uint8(rng.Intn(len(s.clients))))
	}
	return due, key, conn
}

// openPhase offers rate requests per second for d, on the schedule above. One
// generator goroutine, locked to its thread, follows the schedule by polling
// the clock: a timer sleep on this class of machine wakes about a millisecond
// late, which would turn independent arrivals into bursts. It yields its
// processor once per gap that is long enough (yieldAbove), which is what lets
// the server use both cores between arrivals. One receiver per connection times
// each response from the instant its request was due.
func (s *serveInstance) openPhase(rate float64, d time.Duration) (*measurement, error) {
	due, key, conn := s.schedule(rate, d)
	serving := s.reloaded.Load()              // no writer runs beside an open phase
	byConn := make([][]int32, len(s.clients)) // per connection: its requests, in sending order
	for k, g := range conn {
		byConn[g] = append(byConn[g], int32(k))
	}
	sentAt := make([]int64, len(due)) // generator-owned
	lat := make([]int64, len(due))    // each entry written by its connection's receiver; -1 until a correct response arrives
	for i := range lat {
		lat[i] = -1
	}
	base := append([]uint64(nil), s.sent...)
	for g := range s.clients {
		s.sent[g] += uint64(len(byConn[g]))
	}

	start := nowNs() + int64(2*time.Millisecond)
	var genErr error
	recvErrs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // generator
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		fail := func(err error) {
			genErr = err
			for _, c := range s.clients {
				c.Close() // unblocks the receivers
			}
		}
		unflushed := make([]bool, len(s.clients))
		nSent := make([]uint64, len(s.clients))
		yielded := false // once per gap: see yieldAbove
		for k := 0; k < len(due); {
			if start+due[k] > nowNs() {
				for g, dirty := range unflushed {
					if dirty {
						if err := s.clients[g].Flush(); err != nil {
							fail(fmt.Errorf("flush: %w", err))
							return
						}
						unflushed[g] = false
					}
				}
				if !yielded && start+due[k]-nowNs() > yieldAbove {
					yielded = true
					runtime.Gosched()
				}
				continue
			}
			g := conn[k]
			model, row := splitKey(key[k])
			nSent[g]++
			id, err := s.clients[g].Send(s.models[model].name, s.models[model].rows[row])
			if err == nil && id != base[g]+nSent[g] {
				err = fmt.Errorf("request %d got id %d", base[g]+nSent[g], id)
			}
			if err != nil {
				fail(fmt.Errorf("send: %w", err))
				return
			}
			sentAt[k] = nowNs() - start
			unflushed[g] = true
			yielded = false
			k++
		}
		for g, dirty := range unflushed {
			if dirty {
				if err := s.clients[g].Flush(); err != nil {
					fail(fmt.Errorf("flush: %w", err))
					return
				}
			}
		}
	}()
	for g, c := range s.clients {
		wg.Add(1)
		go func() { // receiver
			defer wg.Done()
			for range byConn[g] {
				resp, err := c.Recv()
				if err != nil {
					recvErrs[g] = fmt.Errorf("recv: %w", err)
					return
				}
				got := nowNs() - start
				i := resp.ID - base[g] - 1
				if i >= uint64(len(byConn[g])) {
					recvErrs[g] = fmt.Errorf("response for unknown request id %d", resp.ID)
					return
				}
				if k := byConn[g][i]; s.check(resp, key[k], serving, serving) {
					lat[k] = got - due[k]
				}
			}
		}()
	}
	wg.Wait()
	if genErr != nil {
		return nil, genErr
	}
	for _, err := range recvErrs {
		if err != nil {
			return nil, err
		}
	}

	m := &measurement{elapsed: time.Duration(nowNs() - start), attempted: int64(len(due))}
	nWin, winLen := windowsOf(d)
	byWin := make([][]uint32, nWin) // by due time
	lag := make([]int64, len(due))
	for k, l := range lat {
		lag[k] = sentAt[k] - due[k]
		if l < 0 {
			m.failed++
			continue
		}
		if w := due[k] / winLen; w < int64(nWin) {
			byWin[w] = append(byWin[w], clampNs(l))
		}
	}
	slices.Sort(lag)
	m.lagP99us = float64(percentile(lag, 0.99)) / 1e3
	m.lines = append(m.lines, fmt.Sprintf("open loop %.0f rps for %s: sent %d, succeeded %d, failed %d, generator lag p50 %.1f us p99 %.1f us",
		rate, d, m.attempted, m.attempted-m.failed, m.failed, float64(percentile(lag, 0.5))/1e3, m.lagP99us))
	summarize(m, byWin, winLen, false)
	return m, nil
}

// closedPhase keeps inFlightPerConn requests in flight on every connection for
// d, while a writer logs a new version of both models and reloads the server
// every reloadEvery.
func (s *serveInstance) closedPhase(d time.Duration, rec *trace.Recorder) (*measurement, error) {
	s.phase++
	start := nowNs()
	end := start + int64(d)
	every := reloadEvery
	if s.cfg.smoke {
		every = 20 * time.Millisecond
	}

	var wg sync.WaitGroup
	var writerErr error
	wlane := rec.Lane()
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for nowNs() < end-int64(every)/2 {
			<-tick.C
			v, err := s.logVersion(wlane)
			if err != nil {
				writerErr = err
				return
			}
			sp := wlane.Begin("serve.reload", -1, int64(v))
			s.srv.Reload()
			wlane.End(sp)
			s.reloaded.Store(v)
		}
	}()

	type pend struct {
		sentAt int64
		key    uint16
		vLo    int32
	}
	type connOut struct {
		byWin             [][]uint32 // correct responses' latencies, by completion time
		attempted, failed int64
		err               error
	}
	nWin, winLen := windowsOf(d)
	outs := make([]connOut, len(s.clients))
	for g, c := range s.clients {
		out := &outs[g]
		out.byWin = make([][]uint32, nWin)
		for w := range out.byWin {
			out.byWin[w] = make([]uint32, 0, winLen/8000) // room for 125k responses/s per connection (95k here): no growth inside the timed loop
		}
		rng := rand.New(rand.NewSource(s.cfg.seed*7919 + s.phase*101 + int64(g)))
		lane := rec.Lane()
		wg.Add(1)
		go func() {
			defer wg.Done()
			inflight := make(map[uint64]pend, 2*inFlightPerConn)
			send := func() error {
				key := s.pickKey(rng)
				model, row := splitKey(key)
				vLo := s.reloaded.Load()
				id, err := c.Send(s.models[model].name, s.models[model].rows[row])
				if err != nil {
					return fmt.Errorf("send: %w", err)
				}
				inflight[id] = pend{nowNs(), key, vLo}
				s.sent[g]++
				out.attempted++
				return nil
			}
			for i := 0; i < inFlightPerConn && out.err == nil; i++ {
				out.err = send()
			}
			if out.err == nil {
				out.err = c.Flush()
			}
			for out.err == nil && len(inflight) > 0 {
				resp, err := c.Recv()
				if err != nil {
					out.err = fmt.Errorf("recv: %w", err)
					return
				}
				now := nowNs()
				p, seen := inflight[resp.ID]
				if !seen {
					out.err = fmt.Errorf("response for unknown request id %d", resp.ID)
					return
				}
				delete(inflight, resp.ID)
				model, _ := splitKey(p.key)
				if s.check(resp, p.key, p.vLo, s.logged[model].Load()) {
					if w := (now - start) / winLen; w < int64(nWin) { // the drain after the last window is checked but not timed
						out.byWin[w] = append(out.byWin[w], clampNs(now-p.sentAt))
					}
					if lane != nil && resp.ID%traceEveryNth == 0 {
						lane.Add("client.predict", -1, int64(g)<<32|int64(resp.ID), epoch.Add(time.Duration(p.sentAt)), epoch.Add(time.Duration(now)))
					}
				} else {
					out.failed++
				}
				if now < end {
					if out.err = send(); out.err == nil {
						out.err = c.Flush()
					}
				}
			}
		}()
	}
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}
	m := &measurement{elapsed: time.Duration(nowNs() - start)}
	byWin := make([][]uint32, nWin)
	for g := range outs {
		if outs[g].err != nil {
			return nil, outs[g].err
		}
		m.attempted += outs[g].attempted
		m.failed += outs[g].failed
		for w := range byWin {
			byWin[w] = append(byWin[w], outs[g].byWin[w]...)
		}
	}
	m.lines = append(m.lines, fmt.Sprintf("closed loop %d x %d in flight for %s: sent %d, succeeded %d, failed %d, model versions logged %d",
		len(s.clients), inFlightPerConn, d, m.attempted, m.attempted-m.failed, m.failed, s.version))
	summarize(m, byWin, winLen, true)
	return m, nil
}

func (s *serveInstance) layers(m *measurement, rec *trace.Recorder, reg registry) (map[string]float64, error) {
	v := map[string]float64{}
	v["serve.batch_rows_mean"] = reg.hists["serve.batch.rows"].Mean
	v["serve.batches_per_s"] = float64(reg.counters["serve.batches"]) / m.elapsed.Seconds()
	v["serve.request_us_p50"] = reg.timers["serve.Request"].Quantile(0.5) / 1e3
	v["serve.score_us_p50"] = reg.timers["serve.Score"].Quantile(0.5) / 1e3
	v["serve.predict_p99_us"] = m.p99ms * 1e3
	v["serve.reloads"] = float64(reg.counters["serve.reloads"])
	st := rec.Stats()
	v["serve.reload_call_us"] = ratio(float64(st["serve.reload"].TotalNs), float64(st["serve.reload"].Count)) / 1e3
	v["modeldb.log_us"] = ratio(float64(st["modeldb.log"].TotalNs), float64(st["modeldb.log"].Count)) / 1e3

	// Direct calls, outside the timed phase and with the registry off: the
	// codec round trip and the scoring kernel on this workload's mix.
	mix := [2]float64{1 - s.wideMix, s.wideMix}
	var reqBuf, respBuf []byte
	rowBuf := make([]float64, serve.MaxFeatures)
	var codecErr error
	for k, mdl := range s.models {
		req := serve.Request{ID: 7, Model: mdl.name, Row: mdl.rows[0]}
		resp := serve.Response{ID: 7, Status: serve.StatusOK, ModelVersion: 1, Value: 0.5}
		ns := timeLoop(s.cfg, func() {
			var err error
			if reqBuf, err = serve.AppendRequest(reqBuf[:0], req); err != nil {
				codecErr = err
				return
			}
			if _, err = serve.DecodeRequest(reqBuf[4:], rowBuf); err != nil { // payload follows the u32 length prefix
				codecErr = err
			}
			respBuf = serve.AppendResponse(respBuf[:0], resp)
			if _, err = serve.DecodeResponse(respBuf[4:]); err != nil {
				codecErr = err
			}
		})
		v["serve.codec_ns_per_req"] += mix[k] * ns
		for _, batch := range []int{1, 32} {
			x := la.NewDense(batch, mdl.dim)
			for i := 0; i < batch; i++ {
				copy(x.RowView(i), mdl.rows[i%len(mdl.rows)])
			}
			dst := make([]float64, batch)
			ns := timeLoop(s.cfg, func() { la.ScoreRowsInto(dst, x, mdl.w, mdl.bias, mdl.link) })
			v[fmt.Sprintf("la.score_rows_ns_per_row_b%d", batch)] += mix[k] * ns / float64(batch)
		}
	}
	if codecErr != nil {
		return nil, fmt.Errorf("codec round trip: %w", codecErr)
	}

	// Independent callers, as companions to the closed loop's figures: an open
	// loop at each of sweepRates, and the highest of them that keeps p99 from
	// due within 1 ms without a growing backlog, all lower rates doing so too.
	s.wideMix = openWideMix // the instance measures no closed loop after this
	d := 2 * time.Second
	if s.cfg.smoke {
		d = 100 * time.Millisecond
	}
	ok := true
	for i, rate := range sweepRates {
		if s.cfg.smoke {
			rate /= 10
		}
		sm, err := s.openPhase(rate, d)
		if err != nil {
			return nil, fmt.Errorf("rate sweep at %.0f rps: %w", rate, err)
		}
		m.lines = append(m.lines, sm.lines...)
		m.attempted += sm.attempted
		m.failed += sm.failed
		switch i {
		case 0:
			v["serve.predict_p50_us_20k"], v["serve.predict_p99_us_20k"] = sm.p50ms*1e3, sm.p99ms*1e3
		case 2:
			v["serve.predict_p50_us_60k"], v["serve.predict_p99_us_60k"] = sm.p50ms*1e3, sm.p99ms*1e3
			v["serve.generator_lag_us_p99"] = sm.lagP99us
		}
		if ok = ok && sm.failed == 0 && sm.p99ms <= 1 && sm.lastP50us <= 1000; ok {
			v["serve.rate_ok_rps"] = rate
		}
	}
	return v, nil
}
