// The streaming descriptive-statistics operators of the in-RDBMS analytics
// libraries the paper surveys (MADlib's modules): Count-Min sketches for
// frequency estimation, Flajolet–Martin sketches for distinct counting, and
// P²-style streaming quantile estimation — the single-pass profiling
// primitives an ML-over-data system runs before training.

package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// CountMin estimates item frequencies over a stream with bounded memory.
// Estimates overcount by at most εN with probability 1−δ for width ≥ e/ε and
// depth ≥ ln(1/δ).
type CountMin struct {
	width, depth int
	counts       [][]uint64
	total        uint64
}

// NewCountMin sizes a sketch for the given error bound ε and failure
// probability δ.
func NewCountMin(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: need 0 < epsilon, delta < 1; got %v, %v", epsilon, delta)
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	cm := &CountMin{width: width, depth: depth, counts: make([][]uint64, depth)}
	for i := range cm.counts {
		cm.counts[i] = make([]uint64, width)
	}
	return cm, nil
}

// hashRow hashes the item for row i.
func (cm *CountMin) hashRow(item string, i int) int {
	h := fnv.New64a()
	h.Write([]byte{byte(i), byte(i >> 8)})
	h.Write([]byte(item))
	return int(h.Sum64() % uint64(cm.width))
}

// Add records count occurrences of item.
func (cm *CountMin) Add(item string, count uint64) {
	for i := 0; i < cm.depth; i++ {
		cm.counts[i][cm.hashRow(item, i)] += count
	}
	cm.total += count
}

// Estimate returns the (over-)estimated frequency of item.
func (cm *CountMin) Estimate(item string) uint64 {
	est := uint64(math.MaxUint64)
	for i := 0; i < cm.depth; i++ {
		if c := cm.counts[i][cm.hashRow(item, i)]; c < est {
			est = c
		}
	}
	return est
}

// SizeBytes reports the sketch footprint.
func (cm *CountMin) SizeBytes() int { return 8 * cm.width * cm.depth }

// FM is a Flajolet–Martin distinct-count sketch using stochastic averaging
// over m registers (the PCSA variant).
type FM struct {
	registers []uint64 // bitmaps of observed ρ values
}

// fmPhi is the Flajolet–Martin bias correction constant.
const fmPhi = 0.77351

// NewFM creates a sketch with m registers (power of two, ≥ 16 recommended).
func NewFM(m int) (*FM, error) {
	if m < 2 || m&(m-1) != 0 {
		return nil, fmt.Errorf("sketch: FM registers must be a power of two ≥ 2, got %d", m)
	}
	return &FM{registers: make([]uint64, m)}, nil
}

// Add observes an item.
func (f *FM) Add(item string) {
	h := fnv.New64a()
	h.Write([]byte(item))
	v := h.Sum64()
	reg := v & uint64(len(f.registers)-1)
	rest := v >> uint(bitsFor(len(f.registers)))
	// ρ = position of the lowest set bit of the remaining hash.
	rho := trailingZeros(rest)
	f.registers[reg] |= 1 << rho
}

// Estimate returns the approximate number of distinct items observed.
func (f *FM) Estimate() float64 {
	m := len(f.registers)
	sumR := 0
	empty := 0
	for _, bm := range f.registers {
		if bm == 0 {
			empty++
		}
		r := 0
		for bm&(1<<uint(r)) != 0 {
			r++
		}
		sumR += r
	}
	// Small-range correction: with many empty registers, linear counting
	// (−m·ln(V)) is far more accurate than the PCSA estimator.
	if empty > 0 {
		if lc := -float64(m) * math.Log(float64(empty)/float64(m)); lc < 2.5*float64(m) {
			return lc
		}
	}
	mean := float64(sumR) / float64(m)
	return float64(m) / fmPhi * math.Pow(2, mean)
}

func bitsFor(m int) int {
	b := 0
	for 1<<b < m {
		b++
	}
	return b
}

func trailingZeros(v uint64) int {
	if v == 0 {
		return 63
	}
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
}

// P2Quantile estimates a single quantile in one pass with O(1) memory using
// the P² algorithm (Jain & Chlamtac).
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	incr    [5]float64
	initial []float64
}

// NewP2Quantile creates an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) (*P2Quantile, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("sketch: quantile p must be in (0,1), got %v", p)
	}
	q := &P2Quantile{p: p}
	q.desired = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.incr = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// Add observes one value.
func (q *P2Quantile) Add(v float64) {
	if q.n < 5 {
		q.initial = append(q.initial, v)
		q.n++
		if q.n == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.heights[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
		}
		return
	}
	q.n++
	// Find the cell k containing v and update extreme heights.
	var k int
	switch {
	case v < q.heights[0]:
		q.heights[0] = v
		k = 0
	case v >= q.heights[4]:
		q.heights[4] = v
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if v < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.desired[i] += q.incr[i]
	}
	// Adjust interior markers via parabolic (fallback linear) interpolation.
	for i := 1; i <= 3; i++ {
		d := q.desired[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			hp := q.parabolic(i, s)
			if q.heights[i-1] < hp && hp < q.heights[i+1] {
				q.heights[i] = hp
			} else {
				q.heights[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

func (q *P2Quantile) parabolic(i int, s float64) float64 {
	return q.heights[i] + s/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+s)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-s)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return q.heights[i] + s*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Estimate returns the current quantile estimate (exact for < 5 samples).
func (q *P2Quantile) Estimate() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if q.n < 5 {
		vals := append([]float64(nil), q.initial...)
		sort.Float64s(vals)
		idx := int(q.p * float64(len(vals)))
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		return vals[idx]
	}
	return q.heights[2]
}

// ColumnProfile is a one-pass summary of a numeric column: the MADlib-style
// profiling result an ML pipeline consults before training.
type ColumnProfile struct {
	Count          int
	Min, Max       float64
	Mean, Std      float64
	ApproxDistinct float64
	ApproxMedian   float64
}

// Profile computes a ColumnProfile in a single pass using Welford's
// algorithm for moments, an FM sketch for distinct counting, and a P² sketch
// for the median.
func Profile(col []float64) (*ColumnProfile, error) {
	if len(col) == 0 {
		return nil, fmt.Errorf("sketch: empty column")
	}
	fm, err := NewFM(64)
	if err != nil {
		return nil, err
	}
	med, err := NewP2Quantile(0.5)
	if err != nil {
		return nil, err
	}
	p := &ColumnProfile{Min: math.Inf(1), Max: math.Inf(-1)}
	mean, m2 := 0.0, 0.0
	var buf [8]byte
	for _, v := range col {
		p.Count++
		if v < p.Min {
			p.Min = v
		}
		if v > p.Max {
			p.Max = v
		}
		delta := v - mean
		mean += delta / float64(p.Count)
		m2 += delta * (v - mean)
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			buf[b] = byte(bits >> (8 * b))
		}
		fm.Add(string(buf[:]))
		med.Add(v)
	}
	p.Mean = mean
	p.Std = math.Sqrt(m2 / float64(p.Count))
	p.ApproxDistinct = fm.Estimate()
	p.ApproxMedian = med.Estimate()
	return p, nil
}
