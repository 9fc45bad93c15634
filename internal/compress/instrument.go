package compress

import (
	"strings"

	"dmml/internal/metrics"
)

// Observability instruments (no-ops until metrics.Enable). The encode-side
// gauges answer the CLA planner questions — what ratio did we get, which
// encodings did the cost model pick, how many columns a row sample settled
// as UC without exact analysis — while the op timers expose how
// compressed kernels compare with their dense counterparts ("la.MatMul"
// etc.) in the same -stats table.
var (
	mEncodeTimer = metrics.NewTimer("compress.Compress")
	mRatio       = metrics.NewGauge("compress.ratio")
	mGroupsDDC   = metrics.NewCounter("compress.groups.ddc")
	mGroupsOLE   = metrics.NewCounter("compress.groups.ole")
	mGroupsRLE   = metrics.NewCounter("compress.groups.rle")
	mGroupsUC    = metrics.NewCounter("compress.groups.uc")
	mSampledUC   = metrics.NewCounter("compress.columns.sampled_uc")

	mMatVecTimer = metrics.NewTimer("compress.MatVec")
	mVecMatTimer = metrics.NewTimer("compress.VecMat")
	mGramTimer   = metrics.NewTimer("compress.Gram")

	mLossGradTimer = metrics.NewTimer("compress.LossGrad")
)

// countGroup records the encoding the planner chose for one built group.
func countGroup(g Group) {
	if !metrics.Enabled() {
		return
	}
	enc := g.Encoding()
	switch {
	case strings.HasPrefix(enc, "DDC"):
		mGroupsDDC.Inc()
	case enc == "OLE":
		mGroupsOLE.Inc()
	case enc == "RLE":
		mGroupsRLE.Inc()
	default:
		mGroupsUC.Inc()
	}
}
