package main

import "slices"

// metricDef names one metric. The two tables below are the single source
// of the names: BENCHMARK.json must list exactly these (bench_test.go
// checks), and later issues cite them.
type metricDef struct {
	Name, Unit string
	Better     string  // "lower" or "higher"
	Bound      float64 // end to end: share of the parent's median it may worsen by
	// On lists the workloads that measure the metric (see onSets). On the
	// others a per-layer metric reads 0: the workload does no work there.
	On string
	// Exact marks simulated counts that repeat exactly at one seed and
	// scale, so two commits must agree on them.
	Exact bool
}

// onSets names the workload groups used in metricDef.On.
var onSets = map[string][]string{
	"all":    {"dense-exchange", "wide-k", "mobile-churn", "sweep-grid", "daemon-sessions"},
	"local":  {"dense-exchange", "wide-k", "mobile-churn", "sweep-grid"},
	"single": {"dense-exchange", "wide-k", "mobile-churn"},
	"dense":  {"dense-exchange"},
	"mobile": {"mobile-churn"},
	"sweep":  {"sweep-grid"},
	"daemon": {"daemon-sessions"},
	"events": {"mobile-churn", "daemon-sessions"},
}

func (m metricDef) on(workload string) bool {
	return slices.Contains(onSets[m.On], workload)
}

// endToEnd: measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: "all"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, On: "all"},
	{Name: "rounds_per_s", Unit: "rounds/s", Better: "higher", Bound: 0.25, On: "all"},
}

// perLayer: measured by the traced pass, named after the module measured.
// README.md says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "cli.overhead_ms", Unit: "ms", Better: "lower", On: "single"},

	{Name: "session.new_ms", Unit: "ms", Better: "lower", On: "local"},
	{Name: "session.steps", Unit: "count", Better: "lower", On: "local", Exact: true},
	{Name: "session.step_p50_ms", Unit: "ms", Better: "lower", On: "local"},
	{Name: "session.step_p99_ms", Unit: "ms", Better: "lower", On: "local"},
	{Name: "session.step_overhead_share", Unit: "ratio", Better: "lower", On: "local"},
	{Name: "session.rebind_ms", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "session.ckpt_write_ms", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "session.ckpt_mb", Unit: "MB", Better: "lower", On: "mobile", Exact: true},
	{Name: "session.resume_ms", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "session.allocs_per_round", Unit: "count", Better: "lower", On: "local"},
	{Name: "session.alloc_mb", Unit: "MB", Better: "lower", On: "local"},

	{Name: "mtm.churn_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "mtm.proposal_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "mtm.exchange_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "mtm.reduction_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "mtm.unattributed_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "mtm.ns_per_node_round", Unit: "ns", Better: "lower", On: "local"},
	{Name: "mtm.accept_ratio", Unit: "ratio", Better: "higher", On: "local", Exact: true},
	{Name: "mtm.barrier_s", Unit: "s", Better: "lower", On: "mobile"},
	{Name: "mtm.shard_imbalance_p50", Unit: "ratio", Better: "lower", On: "mobile"},
	{Name: "mtm.shard_speedup", Unit: "ratio", Better: "higher", On: "dense"},
	{Name: "mtm.shard_speedup_workers", Unit: "count", Better: "higher", On: "dense"},

	{Name: "core.connections", Unit: "count", Better: "lower", On: "local", Exact: true},
	{Name: "core.proposals", Unit: "count", Better: "lower", On: "local", Exact: true},
	{Name: "core.tokens_moved", Unit: "count", Better: "lower", On: "local", Exact: true},
	{Name: "core.control_bits", Unit: "count", Better: "lower", On: "local", Exact: true},
	{Name: "core.productive_ratio", Unit: "ratio", Better: "higher", On: "local", Exact: true},
	{Name: "core.proposal_ns_per_node_round", Unit: "ns", Better: "lower", On: "local"},
	{Name: "eqtest.exchange_us_per_conn", Unit: "us", Better: "lower", On: "local"},

	{Name: "topology.build_ms", Unit: "ms", Better: "lower", On: "local"},
	{Name: "topology.advance_ms_per_round", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "topology.edges_changed", Unit: "count", Better: "lower", On: "mobile", Exact: true},
	{Name: "topology.ns_per_changed_edge", Unit: "ns", Better: "lower", On: "mobile"},
	{Name: "mobility.churn_ms_per_round", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "adversary.churn_ms_per_round", Unit: "ms", Better: "lower", On: "mobile"},

	{Name: "events.lines", Unit: "count", Better: "lower", On: "events", Exact: true},
	{Name: "events.mb", Unit: "MB", Better: "lower", On: "events"},
	{Name: "events.dropped", Unit: "count", Better: "lower", On: "mobile"},
	{Name: "events.sink_open_ms", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "events.sink_close_ms", Unit: "ms", Better: "lower", On: "mobile"},
	{Name: "events.standalone_lines_per_s", Unit: "1/s", Better: "higher", On: "events"},

	{Name: "runner.cells", Unit: "count", Better: "lower", On: "sweep", Exact: true},
	{Name: "runner.rounds_total", Unit: "count", Better: "lower", On: "sweep", Exact: true},
	{Name: "runner.cell_p50_ms", Unit: "ms", Better: "lower", On: "sweep"},
	{Name: "runner.cell_p95_ms", Unit: "ms", Better: "lower", On: "sweep"},
	{Name: "runner.cells_s_blindmatch", Unit: "s", Better: "lower", On: "sweep"},
	{Name: "runner.cells_s_sharedbit", Unit: "s", Better: "lower", On: "sweep"},
	{Name: "runner.cells_s_simsharedbit", Unit: "s", Better: "lower", On: "sweep"},
	{Name: "runner.cells_s_crowdedbin", Unit: "s", Better: "lower", On: "sweep"},
	{Name: "runner.new_share", Unit: "ratio", Better: "lower", On: "sweep"},
	{Name: "runner.pool_efficiency", Unit: "ratio", Better: "higher", On: "sweep"},

	{Name: "gossipd.sessions_per_s", Unit: "1/s", Better: "higher", On: "daemon"},
	{Name: "gossipd.create_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.create_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.run_partial_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.run_partial_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.run_finish_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.run_finish_p95_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.run_finish_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.state_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.state_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.checkpoint_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.checkpoint_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.events_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.events_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.delete_p50_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.delete_p99_ms", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.requests", Unit: "count", Better: "lower", On: "daemon", Exact: true},
	{Name: "gossipd.failed_requests", Unit: "count", Better: "lower", On: "daemon"},
	{Name: "gossipd.evictions", Unit: "count", Better: "lower", On: "daemon"},
	{Name: "gossipd.revivals", Unit: "count", Better: "lower", On: "daemon"},
	{Name: "gossipd.evict_errors", Unit: "count", Better: "lower", On: "daemon"},
	{Name: "gossipd.cpu_s", Unit: "s", Better: "lower", On: "daemon"},
	{Name: "gossipd.cpu_ms_per_session", Unit: "ms", Better: "lower", On: "daemon"},
	{Name: "gossipd.peak_rss_mb", Unit: "MB", Better: "lower", On: "daemon"},
	{Name: "gossipd.service_overhead_share", Unit: "ratio", Better: "lower", On: "daemon"},

	{Name: "proc.cpu_s", Unit: "s", Better: "lower", On: "local"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", On: "local"},
	{Name: "proc.build_s", Unit: "s", Better: "lower", On: "all"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", On: "all"},
	{Name: "trace.span_coverage", Unit: "ratio", Better: "higher", On: "all"},
}
