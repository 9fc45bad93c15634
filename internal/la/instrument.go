package la

import "dmml/internal/metrics"

// Engine observability instruments (see internal/metrics). Everything here
// is a no-op costing one atomic load until metrics.Enable() — the kernels'
// AllocsPerRun pins and the E5 benchmark hold with these in place.
//
// The dispatch counters make the GEMM gate auditable at runtime: `dmmlbench
// -metrics` shows how many products the flops/sparsity heuristic sent to
// the blocked, k-split, and streaming kernels, which is the first question
// every perf regression hunt asks.
var (
	mFlops = metrics.NewCounter("la.flops")

	mMatMulCalls   = metrics.NewCounter("la.matmul.calls")
	mMatMulBlocked = metrics.NewCounter("la.matmul.dispatch.blocked")
	mMatMulKSplit  = metrics.NewCounter("la.matmul.dispatch.ksplit")
	mMatMulStream  = metrics.NewCounter("la.matmul.dispatch.stream")
	mMatMulTimer   = metrics.NewTimer("la.MatMul")

	mMatVecCalls = metrics.NewCounter("la.matvec.calls")
	mVecMatCalls = metrics.NewCounter("la.vecmat.calls")
	mGramCalls   = metrics.NewCounter("la.gram.calls")
	mGramTimer   = metrics.NewTimer("la.Gram")

	// Fused-pipeline instruments: one counter per template, so
	// `dmmlbench -metrics` shows how much of a run executed fused.
	mFusedCellCalls = metrics.NewCounter("la.fused.cell.calls")
	mFusedAggCalls  = metrics.NewCounter("la.fused.rowagg.calls")
	mFusedCellTimer = metrics.NewTimer("la.FusedCell")
	mFusedAggTimer  = metrics.NewTimer("la.FusedRowAgg")
	mFusedRowCalls  = metrics.NewCounter("la.fused.row.calls")
	mFusedRowTimer  = metrics.NewTimer("la.FusedRow")

	// Kernel-compiler instruments (fusedc.go): flat-template hits among the
	// fused executions, and the one-time lowering per input-kind signature.
	mFusedFlat         = metrics.NewCounter("la.fused.dispatch.flat")
	mFusedCompileTimer = metrics.NewTimer("la.FusedCompile")

	// Serving-path scoring: total rows scored through ScoreRowsInto /
	// ScoreRow, so `dmmlserve -stats` can relate predictions to GEMV work.
	mScoreRows = metrics.NewCounter("la.score.rows")
)
