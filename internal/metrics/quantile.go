package metrics

// Quantile estimation over the power-of-two buckets. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds exactly the
// zeros and bucket i >= 1 spans [2^(i-1), 2^i). A quantile is located by
// walking the cumulative counts to the bucket containing the target rank
// and interpolating linearly inside that bucket's value range — the
// standard log-bucketed estimator (resolution is a factor of two, tightened
// by clamping to the exact tracked Min/Max). This is what the serving
// loadtest uses to report p50/p99/p999 latencies.

// Quantile returns the estimated q-quantile of the recorded observations,
// for q in [0, 1]. q <= 0 returns Min, q >= 1 returns Max, and an empty
// histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	// Target rank in (0, Count]: the r-th smallest observation.
	r := q * float64(s.Count)
	if r < 1 {
		r = 1
	}
	var cum float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if r <= next {
			lo, hi := bucketBounds(b)
			frac := (r - cum) / float64(n)
			v := lo + frac*(hi-lo)
			// The exact extrema are tracked; never report outside them.
			if v < float64(s.Min) {
				v = float64(s.Min)
			}
			if v > float64(s.Max) {
				v = float64(s.Max)
			}
			return v
		}
		cum = next
	}
	return float64(s.Max)
}

// bucketBounds returns the value range [lo, hi) covered by bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1 // bucket 0 holds exactly the zeros
	}
	return float64(int64(1) << (b - 1)), float64(int64(1) << b)
}

// Quantile returns the estimated q-quantile of the timer's recorded
// durations in nanoseconds, with the same semantics as
// HistogramSnapshot.Quantile.
func (s TimerSnapshot) Quantile(q float64) float64 {
	return HistogramSnapshot{
		Count:   s.Count,
		Sum:     s.TotalNs,
		Min:     s.MinNs,
		Max:     s.MaxNs,
		Buckets: s.Buckets,
	}.Quantile(q)
}
