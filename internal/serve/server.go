package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmml/internal/modeldb"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7077". With an empty
	// port (":0") the kernel picks one; see Server.Addr.
	Addr string
	// Store is the model registry served from. Hot weights are snapshots of
	// Store.Latest(name); Reload picks up newly logged versions.
	Store *modeldb.Store
	// MaxBatch caps the rows scored per GEMV chunk (default 256).
	MaxBatch int
	// PollInterval, when positive, starts a background loop calling Reload
	// so versions logged by a trainer become servable automatically.
	PollInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	return c
}

// Server is the batched online inference server. Create with New, start
// with Serve, stop with Shutdown.
type Server struct {
	cfg Config
	ln  net.Listener

	qmu    sync.RWMutex
	queues map[string]*modelQueue

	cmu   sync.Mutex
	conns map[*srvConn]struct{}

	connWG     sync.WaitGroup
	workerWG   sync.WaitGroup
	stopW      chan struct{} // closed after conns drain: workers may exit
	pollDone   chan struct{}
	draining   atomic.Bool
	shutdownMu sync.Mutex
	shutdown   bool
}

// New creates a server and binds its listener (so Addr is valid before
// Serve is called — tests and the loadtest self-serve mode need the port).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		queues:   map[string]*modelQueue{},
		conns:    map[*srvConn]struct{}{},
		stopW:    make(chan struct{}),
		pollDone: make(chan struct{}),
	}
	if cfg.PollInterval > 0 {
		go s.pollLoop()
	} else {
		close(s.pollDone)
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until Shutdown closes the listener. It always
// returns a non-nil error; after a clean Shutdown that error is net.ErrClosed.
func (s *Server) Serve() error {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return err
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		mConnsOpened.Inc()
		s.connWG.Add(1)
		go s.handleConn(nc)
	}
}

// Shutdown drains the server: stop accepting, unblock connection readers,
// wait for every admitted request to be answered and flushed, then stop
// the batch workers. Safe to call more than once.
func (s *Server) Shutdown() {
	s.shutdownMu.Lock()
	defer s.shutdownMu.Unlock()
	if s.shutdown {
		return
	}
	s.shutdown = true
	s.draining.Store(true)
	s.ln.Close()
	// Unblock every reader parked in ReadFrame; each then finishes its
	// in-flight requests, flushes its writer and closes.
	s.cmu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.cmu.Unlock()
	s.connWG.Wait()
	close(s.stopW)
	s.workerWG.Wait()
	<-s.pollDone
}

// Reload rescans the store for every model currently being served and
// atomically swaps in any newer logged version. In-flight batches keep the
// snapshot they captured, so a reload never drops or misroutes a request.
// It returns the number of models swapped.
func (s *Server) Reload() int {
	s.qmu.RLock()
	qs := make([]*modelQueue, 0, len(s.queues))
	for _, q := range s.queues {
		qs = append(qs, q)
	}
	s.qmu.RUnlock()
	swapped := 0
	for _, q := range qs {
		m, err := loadModel(s.cfg.Store, q.name)
		if err != nil {
			continue // keep serving the cached snapshot
		}
		if cur := q.hot.Load(); cur == nil || m.version > cur.version {
			q.hot.Store(m)
			mReloads.Inc()
			swapped++
		}
	}
	return swapped
}

func (s *Server) pollLoop() {
	defer close(s.pollDone)
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Reload()
		case <-s.stopW:
			return
		}
	}
}

// queueFor returns the admission queue for model (creating it, worker
// included, on the first request that names the model) plus the current
// snapshot. A name with no logged runs returns an error and creates nothing.
func (s *Server) queueFor(model string) (*modelQueue, *hotModel, error) {
	s.qmu.RLock()
	q := s.queues[model]
	s.qmu.RUnlock()
	if q != nil {
		return q, q.hot.Load(), nil
	}
	m, err := loadModel(s.cfg.Store, model)
	if err != nil {
		return nil, nil, err
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if q = s.queues[model]; q != nil { // lost the creation race
		return q, q.hot.Load(), nil
	}
	q = &modelQueue{name: model, wake: make(chan struct{}, 1)}
	q.hot.Store(m)
	s.queues[model] = q
	s.workerWG.Add(1)
	go q.loop(s, s.stopW)
	return q, m, nil
}

// srvConn is one client connection: a reader goroutine (handleConn) that
// decodes and admits requests, and a writer goroutine that encodes and
// flushes responses as batch completions deliver them.
type srvConn struct {
	nc  net.Conn
	out chan Response
	// pending counts requests admitted but not yet handed to the writer;
	// the reader waits on it before closing out, so every admitted request
	// gets its response written even while the server drains.
	pending sync.WaitGroup
}

// reply hands one response to the connection writer and closes out the
// request's latency span. Called by batch workers and by the admission
// path for immediate errors.
func (c *srvConn) reply(r Response, start time.Time) {
	if r.Status == StatusOK {
		mPredictions.Inc()
	} else {
		mErrors.Inc()
	}
	tRequest.Observe(time.Since(start))
	c.out <- r
	c.pending.Done()
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	c := &srvConn{nc: nc, out: make(chan Response, 4096)}
	s.cmu.Lock()
	s.conns[c] = struct{}{}
	s.cmu.Unlock()
	if s.draining.Load() { // raced with Shutdown's deadline sweep
		nc.SetReadDeadline(time.Now())
	}

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	br := bufio.NewReaderSize(nc, 64<<10)
	frame := make([]byte, 0, 4<<10)
	row := make([]float64, MaxFeatures)
	for {
		var err error
		frame, err = ReadFrame(br, frame)
		if err != nil {
			break // EOF, drain deadline, or unrecoverable framing error
		}
		req, err := DecodeRequest(frame, row)
		if err != nil {
			// The stream may be desynchronized; answer and hang up.
			c.pending.Add(1)
			c.reply(Response{ID: req.ID, Status: StatusBadRequest, Msg: err.Error()}, time.Now())
			break
		}
		s.submit(c, req)
	}

	c.pending.Wait() // every admitted request answered
	close(c.out)     // writer flushes the tail and exits
	<-writerDone
	nc.Close()
	s.cmu.Lock()
	delete(s.conns, c)
	s.cmu.Unlock()
}

// submit admits one decoded request: resolve the model, validate the row
// dimension, and append to the model's batch. req.Row may alias the
// connection's decode buffer — enqueue copies it before returning.
func (s *Server) submit(c *srvConn, req Request) {
	mRequests.Inc()
	start := time.Now()
	c.pending.Add(1)
	q, m, err := s.queueFor(req.Model)
	if err != nil {
		c.reply(Response{ID: req.ID, Status: StatusNoModel, Msg: err.Error()}, start)
		return
	}
	if m == nil || len(req.Row) != m.dim {
		dim := 0
		if m != nil {
			dim = m.dim
		}
		c.reply(Response{
			ID:     req.ID,
			Status: StatusBadRequest,
			Msg:    fmt.Sprintf("model %q wants %d features, got %d", req.Model, dim, len(req.Row)),
		}, start)
		return
	}
	if !q.enqueue(c, req.ID, req.Row, start) {
		c.reply(Response{
			ID:     req.ID,
			Status: StatusInternal,
			Msg:    fmt.Sprintf("model %q dimension changed during batching", req.Model),
		}, start)
	}
}

func (c *srvConn) writeLoop(done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	buf := make([]byte, 0, 1<<10)
	var werr error
	for r := range c.out {
		if werr != nil {
			continue // client is gone; keep draining so reply never blocks
		}
		buf = AppendResponse(buf[:0], r)
		if _, werr = bw.Write(buf); werr != nil {
			continue
		}
		if len(c.out) == 0 { // nothing queued behind us: flush the batch
			werr = bw.Flush()
		}
	}
	if werr == nil {
		bw.Flush()
	}
}

// IsClosedErr reports whether err is the listener-closed error a clean
// Shutdown makes Serve return.
func IsClosedErr(err error) bool { return errors.Is(err, net.ErrClosed) }
