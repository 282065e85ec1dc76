package main

// The metric tables below are the harness's copy of BENCHMARK.json; a unit
// test holds the two equal. defaultSeed and defaultSeconds are the values
// the committed baseline in bench/README.md was measured with.
const (
	defaultSeed    = 1
	defaultSeconds = 15
)

type metricDef struct {
	name  string
	unit  string
	lower bool    // lower is better
	bound float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are measured with tracing off; every workload reports
// all of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"runs_per_s", "runs/s", false, 0.25},
	{"run_p50_ms", "ms", true, 0.25},
	{"op_p50_ms", "ms", true, 0.25},
	{"cpu_ms_per_run", "ms", true, 0.25},
	{"alloc_mb_per_run", "MB", true, 0.10},
	{"sim_runtime_s", "s", true, 0.08},
}

// perLayerMetrics come from the traced pass. A workload that does not
// exercise a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	{"rm3d.generate_s", "s", true, 0},
	{"scenario.generate_ms_per_trace", "ms", true, 0},
	{"scenario.parse_us", "us", true, 0},
	{"octant.classify_us_per_regrid", "us", true, 0},
	{"policy.select_us_per_regrid", "us", true, 0},
	{"partition.pac_ms_per_regrid", "ms", true, 0},
	{"partition.migration_ms_per_regrid", "ms", true, 0},
	{"partition.partition_ms_per_regrid", "ms", true, 0},
	{"partition.scratch_ms_per_regrid", "ms", true, 0},
	{"partition.reuse_ratio", "ratio", false, 0},
	{"partition.units_per_regrid", "count", true, 0},
	{"partition.rasterizations_per_regrid", "count", true, 0},
	{"partition.guard_reruns_per_run", "count", true, 0},
	{"cluster.step_us_per_step", "us", true, 0},
	{"checkpoint.save_ms_p50", "ms", true, 0},
	{"checkpoint.latest_ms", "ms", true, 0},
	{"checkpoint.bytes_per_save", "bytes", true, 0},
	{"checkpoint.saves_per_run", "count", true, 0},
	{"core.assign_ms_per_regrid", "ms", true, 0},
	{"core.self_ms_per_regrid", "ms", true, 0},
	{"core.ckpt_encode_ms_p50", "ms", true, 0},
	{"core.resume_ms", "ms", true, 0},
	{"core.regrid_p99_ms", "ms", true, 0},
	{"core.unattributed_pct", "%", true, 0},
	{"sched.queue_wait_ms_p50", "ms", true, 0},
	{"sched.run_ms_p50", "ms", true, 0},
	{"sched.overhead_ms_per_run", "ms", true, 0},
	{"sched.rejected", "count", true, 0},
	{"sched.preemptions", "count", true, 0},
	{"http.submit_ms_p50", "ms", true, 0},
	{"http.status_ms_p99", "ms", true, 0},
	{"http.status_bytes", "bytes", true, 0},
	{"stream.done_lag_ms_p50", "ms", true, 0},
	{"stream.events_per_run", "count", true, 0},
	{"stream.dropped", "count", true, 0},
	{"fleet.dispatch_ms_p50", "ms", true, 0},
	{"fleet.overhead_ms_per_run", "ms", true, 0},
	{"fleet.placement_skew", "ratio", true, 0},
	{"fleet.retries", "count", true, 0},
	{"fleet.failovers", "count", true, 0},
	{"fleet.local_fallbacks", "count", true, 0},
	{"agents.rtt_us_p50", "us", true, 0},
	{"agents.messages_per_run", "count", true, 0},
	{"runtime.gc_cycles_per_run", "count", true, 0},
	{"runtime.gc_pause_ms_per_run", "ms", true, 0},
	{"runtime.rss_peak_mb", "MB", true, 0},
	{"client.run_p95_ms", "ms", true, 0},
	{"client.little_ratio", "ratio", false, 0},
	{"client.calib_ms", "ms", true, 0},
	{"trace.overhead_pct", "%", true, 0},
}
