package opt

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"dmml/internal/la"
	"dmml/internal/pool"
)

// UDA is Bismarck's unified user-defined-aggregate contract for incremental
// gradient methods run inside a data system: the system drives Initialize
// once, Transition per tuple, and Terminate at the end of the pass; Merge
// combines states from parallel partitions.
type UDA interface {
	// Initialize prepares state for a model of dimension d.
	Initialize(d int)
	// Transition folds one labeled example into the state.
	Transition(x []float64, y float64)
	// Terminate finalizes and returns the model after a pass.
	Terminate() []float64
	// Merge folds another partition's state into this one (model averaging).
	Merge(other UDA) error
}

// SGDAggregate is the SGD instantiation of the Bismarck UDA.
type SGDAggregate struct {
	W     []float64
	Loss  Loss
	Step  float64
	L2    float64
	seen  int
	other int // examples represented by merged-in states
}

// Initialize implements UDA.
func (s *SGDAggregate) Initialize(d int) {
	s.W = make([]float64, d)
	s.seen, s.other = 0, 0
}

// Transition implements UDA: one incremental gradient step.
func (s *SGDAggregate) Transition(x []float64, y float64) {
	m := la.Dot(s.W, x)
	g := s.Loss.Deriv(m, y)
	if s.L2 != 0 {
		la.ScaleVec(1-s.Step*s.L2, s.W)
	}
	if g != 0 {
		la.Axpy(-s.Step*g, x, s.W)
	}
	s.seen++
}

// Terminate implements UDA.
func (s *SGDAggregate) Terminate() []float64 { return s.W }

// Merge implements UDA by count-weighted model averaging, Bismarck's
// partitioned-execution combine step.
func (s *SGDAggregate) Merge(other UDA) error {
	o, ok := other.(*SGDAggregate)
	if !ok {
		return fmt.Errorf("opt: cannot merge %T into *SGDAggregate", other)
	}
	if len(o.W) != len(s.W) {
		return fmt.Errorf("opt: merge dimension mismatch %d vs %d", len(o.W), len(s.W))
	}
	wt := float64(s.seen + s.other)
	wo := float64(o.seen + o.other)
	if wt+wo == 0 {
		return nil
	}
	a := wt / (wt + wo)
	for j := range s.W {
		s.W[j] = a*s.W[j] + (1-a)*o.W[j]
	}
	s.other += o.seen + o.other
	return nil
}

// SGDConfig configures stochastic gradient descent.
type SGDConfig struct {
	Step   float64 // initial step size (> 0)
	Decay  float64 // per-epoch decay: step_e = Step/(1+Decay·e)
	Epochs int     // passes over the data (> 0)
	Seed   int64   // shuffle seed
}

func (c SGDConfig) validate(n int) error {
	if c.Step <= 0 {
		return fmt.Errorf("opt: SGD step must be > 0, got %v", c.Step)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("opt: SGD epochs must be > 0, got %d", c.Epochs)
	}
	if n == 0 {
		return fmt.Errorf("opt: SGD over empty data")
	}
	return nil
}

// SGDResult reports an SGD fit and its per-epoch mean loss trajectory.
type SGDResult struct {
	W         []float64
	EpochLoss []float64 // mean loss after each epoch
}

// MeanLoss computes the unregularized mean loss of w over the data. Rows are
// summed through pool.Reduce in the fixed chunks of la.VecMatInto's grid on
// the data, so the result does not depend on GOMAXPROCS.
func MeanLoss(data *la.Dense, y []float64, w []float64, loss Loss) float64 {
	n := data.Rows()
	var total [1]float64
	pool.Reduce(total[:], n, data.Cols(), func(acc []float64, lo, hi int) {
		t := 0.0
		for i := lo; i < hi; i++ {
			t += loss.Value(la.Dot(w, data.RowView(i)), y[i])
		}
		acc[0] += t
	})
	return total[0] / float64(n)
}

// SGD trains by sequential stochastic gradient descent with per-epoch
// shuffling, driving an SGDAggregate exactly as a data system would drive a
// Bismarck UDA.
func SGD(data *la.Dense, y []float64, loss Loss, cfg SGDConfig) (*SGDResult, error) {
	n := data.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if len(y) != n {
		return nil, fmt.Errorf("opt: %d labels for %d rows", len(y), n)
	}
	agg := &SGDAggregate{Loss: loss}
	agg.Initialize(data.Cols())
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)
	res := &SGDResult{}
	for e := 0; e < cfg.Epochs; e++ {
		epochSW := mSGDEpochTimer.Start()
		mSGDEpochs.Inc()
		agg.Step = cfg.Step / (1 + cfg.Decay*float64(e))
		for _, i := range order {
			agg.Transition(data.RowView(i), y[i])
		}
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		epochLoss := MeanLoss(data, y, agg.W, loss)
		mSGDLoss.Set(epochLoss)
		epochSW.Stop()
		res.EpochLoss = append(res.EpochLoss, epochLoss)
	}
	res.W = agg.Terminate()
	return res, nil
}

// ParallelMode selects the parallel SGD execution strategy (Bismarck §4).
type ParallelMode int

// Parallel SGD strategies.
const (
	// ModelAverage partitions rows across workers; each runs an independent
	// UDA pass per epoch and the states are merged by weighted averaging.
	ModelAverage ParallelMode = iota
	// SharedAtomic keeps one shared model updated with per-coordinate atomic
	// compare-and-swap (lock-free, Hogwild-style but race-free in Go).
	SharedAtomic
)

// ParallelSGD trains with the given number of workers and strategy.
func ParallelSGD(data *la.Dense, y []float64, loss Loss, cfg SGDConfig, workers int, mode ParallelMode) (*SGDResult, error) {
	n := data.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if len(y) != n {
		return nil, fmt.Errorf("opt: %d labels for %d rows", len(y), n)
	}
	if workers < 1 {
		return nil, fmt.Errorf("opt: workers must be >= 1, got %d", workers)
	}
	if workers == 1 {
		return SGD(data, y, loss, cfg)
	}
	switch mode {
	case ModelAverage:
		return modelAverageSGD(data, y, loss, cfg, workers)
	case SharedAtomic:
		return sharedAtomicSGD(data, y, loss, cfg, workers)
	default:
		return nil, fmt.Errorf("opt: unknown parallel mode %d", mode)
	}
}

func partition(n, workers int) [][2]int {
	parts := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for r0 := 0; r0 < n; r0 += chunk {
		parts = append(parts, [2]int{r0, min(r0+chunk, n)})
	}
	return parts
}

// partitionState is the per-partition scaffolding shared by both parallel
// strategies, allocated once and reused across epochs: visiting order within
// the partition and a partition-seeded RNG to reshuffle it each epoch.
type partitionState struct {
	order []int
	rng   *rand.Rand
}

func newPartitionStates(parts [][2]int, seed int64) []partitionState {
	sts := make([]partitionState, len(parts))
	for pi, p := range parts {
		sts[pi].rng = rand.New(rand.NewSource(seed + int64(pi)))
		sts[pi].order = make([]int, p[1]-p[0])
		for k := range sts[pi].order {
			sts[pi].order[k] = p[0] + k
		}
	}
	return sts
}

func (st *partitionState) reshuffle() {
	o := st.order
	st.rng.Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
}

func modelAverageSGD(data *la.Dense, y []float64, loss Loss, cfg SGDConfig, workers int) (*SGDResult, error) {
	n, d := data.Rows(), data.Cols()
	parts := partition(n, workers)
	w := make([]float64, d)
	res := &SGDResult{}
	// Per-partition aggregates are allocated once and reused across epochs;
	// partitions are scheduled on the shared worker pool.
	aggs := make([]*SGDAggregate, len(parts))
	for pi := range aggs {
		aggs[pi] = &SGDAggregate{Loss: loss}
		aggs[pi].Initialize(d)
	}
	states := newPartitionStates(parts, cfg.Seed)
	for e := 0; e < cfg.Epochs; e++ {
		step := cfg.Step / (1 + cfg.Decay*float64(e))
		pool.Do(len(parts), 1, func(lo, hi int) {
			for pi := lo; pi < hi; pi++ {
				agg := aggs[pi]
				agg.Step = step
				agg.seen, agg.other = 0, 0
				copy(agg.W, w) // warm start from the merged model
				states[pi].reshuffle()
				for _, i := range states[pi].order {
					agg.Transition(data.RowView(i), y[i])
				}
			}
		})
		merged := aggs[0]
		for _, a := range aggs[1:] {
			if err := merged.Merge(a); err != nil {
				return nil, err
			}
		}
		copy(w, merged.W)
		res.EpochLoss = append(res.EpochLoss, MeanLoss(data, y, w, loss))
	}
	res.W = w
	return res, nil
}

func sharedAtomicSGD(data *la.Dense, y []float64, loss Loss, cfg SGDConfig, workers int) (*SGDResult, error) {
	n, d := data.Rows(), data.Cols()
	shared := make([]atomic.Uint64, d)
	load := func(buf []float64) {
		for j := range buf {
			buf[j] = math.Float64frombits(shared[j].Load())
		}
	}
	addTo := func(j int, delta float64) {
		for {
			old := shared[j].Load()
			nv := math.Float64bits(math.Float64frombits(old) + delta)
			if shared[j].CompareAndSwap(old, nv) {
				return
			}
		}
	}
	parts := partition(n, workers)
	res := &SGDResult{}
	// Per-partition model snapshots are allocated once and reused across
	// epochs; partitions run concurrently on the shared worker pool.
	bufs := make([][]float64, len(parts))
	for pi := range bufs {
		bufs[pi] = make([]float64, d)
	}
	states := newPartitionStates(parts, cfg.Seed)
	wLocal := make([]float64, d)
	for e := 0; e < cfg.Epochs; e++ {
		step := cfg.Step / (1 + cfg.Decay*float64(e))
		pool.Do(len(parts), 1, func(lo, hi int) {
			for pi := lo; pi < hi; pi++ {
				buf := bufs[pi]
				states[pi].reshuffle()
				for _, i := range states[pi].order {
					x := data.RowView(i)
					load(buf)
					m := la.Dot(buf, x)
					g := loss.Deriv(m, y[i])
					for j, xj := range x {
						delta := -step * (g * xj)
						if delta != 0 {
							addTo(j, delta)
						}
					}
				}
			}
		})
		load(wLocal)
		res.EpochLoss = append(res.EpochLoss, MeanLoss(data, y, wLocal, loss))
	}
	w := make([]float64, d)
	load(w)
	res.W = w
	return res, nil
}
