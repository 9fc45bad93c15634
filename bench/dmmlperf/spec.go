package main

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (a test keeps the two in
// step) and later issues refer to these names verbatim.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system waits for. Every workload reports
// every one of them, from the untraced run. An "operation" is one predict
// request on the serving workloads and one training job on the others.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median of the run's set-ups: data, models, server, ingest, warm-up
	{"latency_ms", "ms"},        // serving: mean predict latency of the closed loop; training: lower-decile job wall time
	{"throughput_per_s", "1/s"}, // serving: correct predictions/s; training: rows x iterations / job time
	{"peak_rss_mb", "MB"},       // VmHWM when the timed phase ends
}

// perLayer comes from the traced run. A layer the workload bypasses reports 0
// for all of its metrics; the *.calls counters make that checkable.
var perLayer = []metricDef{
	{"serve.requests", "count"},
	{"serve.codec_ns_per_req", "ns"},
	{"serve.batch_rows_mean", "count"},
	{"serve.batches_per_s", "1/s"},
	{"serve.request_us_p50", "us"},
	{"serve.score_us_p50", "us"},
	{"serve.generator_lag_us_p99", "us"},
	{"serve.predict_p99_us", "us"},
	{"serve.predict_p50_us_20k", "us"},
	{"serve.predict_p99_us_20k", "us"},
	{"serve.predict_p50_us_60k", "us"},
	{"serve.predict_p99_us_60k", "us"},
	{"serve.rate_ok_rps", "1/s"},
	{"serve.reload_call_us", "us"},
	{"serve.reloads", "count"},
	{"modeldb.log_us", "us"},
	{"la.score_rows_ns_per_row_b1", "ns"},
	{"la.score_rows_ns_per_row_b32", "ns"},

	{"factorized.calls", "count"},
	{"factorized.build_ms", "ms"},
	{"factorized.matvec_ms", "ms"},
	{"factorized.vecmat_ms", "ms"},
	{"factorized.gram_ms", "ms"},
	{"factorized.flops_pushdown_share", "ratio"},

	{"opt.gd_iters", "count"},
	{"opt.gd_iter_ms", "ms"},
	{"opt.self_ms_per_iter", "ms"},
	{"opt.rows_per_s", "1/s"},
	{"opt.stream_epoch_ms", "ms"},
	{"la.solve_spd_ms", "ms"},

	{"ooc.block_pins", "count"},
	{"ooc.ingest_s", "s"},
	{"ooc.block_pin_ms", "ms"},
	{"ooc.decode_ms_per_block", "ms"},
	{"ooc.prefetch_hit_rate", "ratio"},
	{"ooc.blocks_per_epoch", "count"},

	{"compress.calls", "count"},
	{"compress.ratio", "ratio"},
	{"compress.encode_ms_per_block", "ms"},
	{"compress.matvec_ms_per_block", "ms"},
	{"compress.vecmat_ms_per_block", "ms"},

	{"storage.pins", "count"},
	{"storage.evictions_per_epoch", "count"},
	{"storage.spill_reads_per_epoch", "count"},
	{"storage.spill_writes_per_epoch", "count"},
	{"storage.bufferpool_hit_rate", "ratio"},
	{"storage.resident_peak_mb", "MB"},

	{"dml.ops", "count"},
	{"dml.parse_us", "us"},
	{"dml.optimize_us", "us"},
	{"dml.run_ms", "ms"},
	{"dml.fused_regions", "count"},
	{"dml.cells_allocated", "count"},
	{"dml.cells_saved", "count"},

	{"la.calls", "count"},
	{"la.gram_ms", "ms"},
	{"la.matvec_ms", "ms"},
	{"la.vecmat_ms", "ms"},
	{"la.fused_cell_ms", "ms"},
	{"la.gflops", "GFLOP/s"},

	{"pool.do_calls", "count"},
	{"pool.do_serial_share", "ratio"},
	{"pool.chunks_stolen_share", "ratio"},
	{"pool.helpers_recruited", "count"},

	{"op.latency_p95_ms", "ms"},
	{"trace_overhead", "ratio"},
	{"failed_share", "ratio"},
}

// workloadNames lists the workloads in the order repeat.py runs them.
var workloadNames = []string{
	"serve_saturated",
	"train_join", "train_ooc", "dml_script",
}
