package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmml/internal/la"
	"dmml/internal/modeldb"
	"dmml/internal/pool"
)

// hotModel is an immutable weight snapshot served for one model name.
// Reload builds a fresh snapshot and swaps the queue's atomic pointer; a
// batch captures the pointer once, so every request in that batch is scored
// by one consistent version even while a swap lands — this is the whole
// drain-free reload mechanism.
type hotModel struct {
	name    string
	runID   int
	version int
	dim     int
	weights []float64
	bias    float64
	link    la.Link
}

// loadModel builds a hotModel from the latest run logged under name.
// Serving conventions over the modeldb schema: Weights are the coefficient
// vector (its length is the feature dimension), Config["bias"] the
// intercept, and a "link:logistic" tag selects the sigmoid link.
func loadModel(store *modeldb.Store, name string) (*hotModel, error) {
	run, err := store.Latest(name)
	if err != nil {
		return nil, err
	}
	if len(run.Weights) == 0 {
		return nil, fmt.Errorf("serve: model %q run %d has no weights", name, run.ID)
	}
	if len(run.Weights) > MaxFeatures {
		return nil, fmt.Errorf("serve: model %q dimension %d exceeds wire limit %d", name, len(run.Weights), MaxFeatures)
	}
	m := &hotModel{
		name:    name,
		runID:   run.ID,
		version: run.Version,
		dim:     len(run.Weights),
		weights: run.Weights, // modeldb read paths deep-copy: this is ours
		bias:    run.Config["bias"],
		link:    la.LinkIdentity,
	}
	for _, tag := range run.Tags {
		if strings.EqualFold(tag, "link:logistic") {
			m.link = la.LinkLogistic
		}
	}
	return m, nil
}

// pendBatch accumulates admitted requests for one model between drains:
// parallel id/conn/start columns plus the feature rows packed into one
// flat buffer, ready to be viewed as a dense matrix without re-copying.
type pendBatch struct {
	ids    []uint64
	conns  []*srvConn
	starts []time.Time
	rows   []float64 // len == len(ids) * stride
}

func (b *pendBatch) reset() {
	b.ids = b.ids[:0]
	b.conns = b.conns[:0]
	b.starts = b.starts[:0]
	b.rows = b.rows[:0]
}

// modelQueue is the admission/batching stage for one model: connections
// append under the mutex, a dedicated worker drains everything queued and
// scores it as one batch. Natural coalescing, no timers: while a GEMV is in
// flight, newly arriving requests pile into the next batch, so batch size
// adapts to load (1 at idle, up to MaxBatch under pressure).
type modelQueue struct {
	name string
	hot  atomic.Pointer[hotModel]

	mu     sync.Mutex
	pend   pendBatch
	stride int // feature dim the current pend batch was packed with
	wake   chan struct{}

	// free is the worker-owned spare batch swapped in at each drain; only
	// the worker touches it, so it needs no lock.
	free pendBatch
}

// enqueue admits one request. The row is copied into the batch buffer
// before return, so the caller may reuse its decode buffer immediately.
// It reports false when the row's width conflicts with rows already packed
// in the pending batch (possible only when a reload changed the model's
// dimension between two admissions).
func (q *modelQueue) enqueue(c *srvConn, id uint64, row []float64, start time.Time) bool {
	q.mu.Lock()
	if len(q.pend.ids) == 0 {
		q.stride = len(row)
	} else if len(row) != q.stride {
		q.mu.Unlock()
		return false
	}
	q.pend.ids = append(q.pend.ids, id)
	q.pend.conns = append(q.pend.conns, c)
	q.pend.starts = append(q.pend.starts, start)
	q.pend.rows = append(q.pend.rows, row...)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default: // worker already signaled
	}
	return true
}

// loop is the per-model batch worker. It exits when stop closes; the
// server only closes stop after every connection has drained, so no
// admitted request is ever abandoned.
func (q *modelQueue) loop(s *Server, stop <-chan struct{}) {
	defer s.workerWG.Done()
	for {
		select {
		case <-q.wake:
		case <-stop:
			return
		}
		q.mu.Lock()
		batch, stride := q.pend, q.stride
		q.pend = q.free
		q.mu.Unlock()
		if len(batch.ids) == 0 {
			q.free = batch
			continue
		}
		gQueueDepth.Set(float64(len(batch.ids)))
		q.scoreBatch(s, &batch, stride)
		batch.reset()
		q.free = batch
	}
}

// refuse answers every request in the batch with StatusInternal and msg.
func (b *pendBatch) refuse(msg string) {
	for i, id := range b.ids {
		b.conns[i].reply(Response{ID: id, Status: StatusInternal, Msg: msg}, b.starts[i])
	}
}

// scoreBatch scores every request in batch against one captured model
// snapshot, in MaxBatch-row chunks: gather is already done (rows are
// packed), so each chunk is one pooled GEMV + fused link over a matrix
// view of the packed buffer, followed by response fan-out.
func (q *modelQueue) scoreBatch(s *Server, batch *pendBatch, stride int) {
	m := q.hot.Load()
	n := len(batch.ids)
	if m == nil || m.dim != stride {
		// The model was swapped to a different dimensionality between
		// admission and drain. The packed rows no longer conform; refuse
		// each request rather than feed a kernel a shape it would panic on.
		batch.refuse(fmt.Sprintf("model %q dimension changed during batching", q.name))
		return
	}
	mBatches.Inc()
	hBatchRows.Observe(int64(n))
	preds := pool.GetF64(n)
	sw := tScore.Start()
	for at := 0; at < n; at += s.cfg.MaxBatch {
		hi := min(at+s.cfg.MaxBatch, n)
		x, err := la.NewDenseData(hi-at, stride, batch.rows[at*stride:hi*stride])
		if err != nil {
			// Admission enforces the stride, so this is a bug; the batch
			// is refused rather than the server brought down.
			sw.Stop()
			pool.PutF64(preds)
			batch.refuse("serve: packed batch misshaped: " + err.Error())
			return
		}
		la.ScoreRowsInto(preds[at:hi], x, m.weights, m.bias, m.link)
	}
	sw.Stop()
	for i := 0; i < n; i++ {
		batch.conns[i].reply(Response{
			ID:           batch.ids[i],
			Status:       StatusOK,
			ModelVersion: uint32(m.version),
			Value:        preds[i],
		}, batch.starts[i])
	}
	pool.PutF64(preds)
}
