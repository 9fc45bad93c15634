package ooc

import "dmml/internal/metrics"

// Observability instruments (no-ops until metrics.Enable). Together with the
// storage.bufferpool.* counters these answer the out-of-core questions: how
// often does a block pin hit the pool, how often does the prefetcher stay
// ahead of the kernel, how long each pinned block takes to decode, and how
// long a builder's caller waits for the block it is paging out.
var (
	mBlocksBuilt     = metrics.NewCounter("ooc.blocks.built")
	mBlockPins       = metrics.NewCounter("ooc.blocks.pins")
	mPrefetchHits    = metrics.NewCounter("ooc.prefetch.hits")
	mPrefetchMisses  = metrics.NewCounter("ooc.prefetch.misses")
	mPrefetchHitRate = metrics.NewGauge("ooc.prefetch.hit_rate")
	mDecodeTimer     = metrics.NewTimer("ooc.block.decode")
	mAppendWait      = metrics.NewTimer("ooc.append.wait")
)

// updatePrefetchHitRate recomputes the process-wide prefetch hit-rate gauge
// from the cumulative counters.
func updatePrefetchHitRate() {
	h, m := mPrefetchHits.Value(), mPrefetchMisses.Value()
	if h+m > 0 {
		mPrefetchHitRate.Set(float64(h) / float64(h+m))
	}
}
