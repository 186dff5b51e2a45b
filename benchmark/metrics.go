package main

// Layer names used in spans: the repo's packages, plus the driver's
// own glue and the load generator.
const (
	layerDriver      = "benchmark"
	layerTopology    = "topology"
	layerCore        = "core"
	layerTraffic     = "traffic"
	layerStats       = "stats"
	layerFlow        = "flow"
	layerExperiments = "experiments"
	layerFlit        = "flit"
	layerServe       = "serve"
	layerClient      = "client"
)

// metricDef declares one metric the driver can print. BENCHMARK.json
// lists the same names; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	bound float64
	// exact marks registry counts and simulated statistics: for a fixed
	// seed they must repeat exactly, so -compare demands equality.
	exact bool
}

// endToEnd are the metrics every workload reports with tracing off.
// nominal and stressed are the workload's two measured conditions (see
// README.md): healthy/degraded fabric for flow-paper, closed-form/
// generic segment fill for mega-stream, light/saturated load for
// flit-paper, quiet/flapping fabric for serve-churn.
//
// The bounds are as wide as the harness allows because the reference
// sandbox is that noisy: the same deterministic single-threaded second
// of work takes 0.71 to 1.0 s there, in regimes that last longer than
// a run, so ten runs of one commit spread by 5 to 8 % between their
// quartiles, and a bound must be three times the spread (README.md,
// "Repeatability").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "nominal_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "stressed_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

// perLayer are the metrics of the traced run. A workload that never
// enters a layer reports that layer's metrics as 0. The e2e.* entries
// are the workload-specific end-to-end readings the generic pair above
// is computed from; they are measured with tracing off.
var perLayer = []metricDef{
	{name: "e2e.fig4_s", unit: "s", better: "lower"},
	{name: "e2e.failures_s", unit: "s", better: "lower"},
	{name: "e2e.sweep_s", unit: "s", better: "lower"},
	{name: "e2e.cycles_per_s_light", unit: "1/s", better: "higher"},
	{name: "e2e.cycles_per_s_sat", unit: "1/s", better: "higher"},
	{name: "e2e.single_qps", unit: "1/s", better: "higher"},
	{name: "e2e.churn_qps", unit: "1/s", better: "higher"},
	{name: "e2e.batch_pairs_per_s", unit: "1/s", better: "higher"},
	{name: "e2e.open_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.open_p99_ms", unit: "ms", better: "lower"},
	{name: "e2e.churn_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.churn_p99_ms", unit: "ms", better: "lower"},
	{name: "e2e.repair_ms", unit: "ms", better: "lower"},

	{name: "topology.build_ms", unit: "ms", better: "lower"},
	{name: "topology.expand_ns_per_path", unit: "ns", better: "lower"},
	{name: "topology.alive_bits_ns_per_pair", unit: "ns", better: "lower"},

	{name: "core.select_ns_per_pair.d-mod-k", unit: "ns", better: "lower"},
	{name: "core.select_ns_per_pair.shift", unit: "ns", better: "lower"},
	{name: "core.select_ns_per_pair.disjoint", unit: "ns", better: "lower"},
	{name: "core.select_ns_per_pair.random", unit: "ns", better: "lower"},
	{name: "core.compile_s", unit: "s", better: "lower"},
	{name: "core.compile_mbps", unit: "MB/s", better: "higher"},
	{name: "core.segment_fill_s.disjoint", unit: "s", better: "lower"},
	{name: "core.segment_fill_s.random", unit: "s", better: "lower"},
	{name: "core.segment_bytes", unit: "B", better: "lower"},
	{name: "core.fill_mbps", unit: "MB/s", better: "higher"},
	{name: "core.segments_compiled", unit: "count", better: "lower", exact: true},
	{name: "core.segment_live_bytes_peak", unit: "B", better: "lower"},
	{name: "core.segcache_store_s", unit: "s", better: "lower"},
	{name: "core.segcache_load_s", unit: "s", better: "lower"},
	{name: "core.segcache_bytes", unit: "B", better: "lower"},
	{name: "core.segcache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.delta_index_ms", unit: "ms", better: "lower"},
	{name: "core.delta_repair_ms", unit: "ms", better: "lower"},
	{name: "core.delta_patched_pairs", unit: "count", better: "lower", exact: true},
	{name: "core.repair_select_ns_per_pair", unit: "ns", better: "lower"},

	{name: "traffic.perm_us", unit: "us", better: "lower"},
	{name: "stats.sampler_us_per_sample", unit: "us", better: "lower"},
	{name: "stats.samples_drawn", unit: "count", better: "lower", exact: true},

	{name: "flow.multik_walk_us.disjoint", unit: "us", better: "lower"},
	{name: "flow.multik_walk_us.random", unit: "us", better: "lower"},
	{name: "flow.lazy_walk_us", unit: "us", better: "lower"},
	{name: "flow.compiled_walk_us", unit: "us", better: "lower"},
	{name: "flow.optimal_us", unit: "us", better: "lower"},
	{name: "flow.block_walk_s", unit: "s", better: "lower"},
	{name: "flow.failure_cell_ms", unit: "ms", better: "lower"},
	{name: "flow.pairs_evaluated", unit: "count", better: "lower", exact: true},
	{name: "flow.multik_walks", unit: "count", better: "lower", exact: true},
	{name: "flow.block_segments_walked", unit: "count", better: "lower", exact: true},
	{name: "flow.repair_patched", unit: "count", better: "lower", exact: true},
	{name: "flow.repair_lazy", unit: "count", better: "lower", exact: true},

	{name: "experiments.cell_busy_s", unit: "s", better: "lower"},
	{name: "experiments.parallel_eff", unit: "ratio", better: "higher"},
	{name: "experiments.cells_done", unit: "count", better: "lower", exact: true},

	{name: "flit.route_hydrate_ms", unit: "ms", better: "lower"},
	{name: "flit.ns_per_cycle.light", unit: "ns", better: "lower"},
	{name: "flit.ns_per_cycle.sat", unit: "ns", better: "lower"},
	{name: "flit.ns_per_flit.light", unit: "ns", better: "lower"},
	{name: "flit.ns_per_flit.sat", unit: "ns", better: "lower"},
	{name: "flit.adaptivek_overhead", unit: "ratio", better: "lower"},
	{name: "flit.allocs_per_run", unit: "count", better: "lower"},
	{name: "flit.vc_stalls", unit: "count", better: "lower", exact: true},
	{name: "flit.flits_ejected", unit: "count", better: "higher", exact: true},
	{name: "flit.msgs_completed", unit: "count", better: "higher", exact: true},
	{name: "flit.inj_heap_depth_max", unit: "count", better: "lower", exact: true},
	{name: "flit.throughput.sat", unit: "ratio", better: "higher", exact: true},
	{name: "flit.avg_delay_cycles.light", unit: "cycles", better: "lower", exact: true},

	{name: "lid.build_fabric_ms", unit: "ms", better: "lower"},

	{name: "serve.boot_ms", unit: "ms", better: "lower"},
	{name: "serve.handler_ns.path", unit: "ns", better: "lower"},
	{name: "serve.handler_ns.batch", unit: "ns", better: "lower"},
	{name: "serve.handler_ns.maxload", unit: "ns", better: "lower"},
	{name: "serve.handler_allocs.path", unit: "count", better: "lower"},
	{name: "serve.handler_allocs.batch", unit: "count", better: "lower"},
	{name: "client.ns_per_req", unit: "ns", better: "lower"},
	{name: "client.late_p50_ms", unit: "ms", better: "lower"},
	{name: "client.late_p99_ms", unit: "ms", better: "lower"},
	{name: "client.backlog_max", unit: "count", better: "lower"},
	{name: "serve.journal_append_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.journal_append_ms.p99", unit: "ms", better: "lower"},
	{name: "serve.submit_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.submit_ms.p99", unit: "ms", better: "lower"},
	{name: "serve.table_swaps", unit: "count", better: "lower"},
	{name: "serve.events_accepted", unit: "count", better: "lower"},
	{name: "serve.queue_depth_max", unit: "count", better: "lower"},
	{name: "serve.degraded_responses", unit: "count", better: "lower"},
	{name: "serve.memo_hit_ratio", unit: "ratio", better: "higher"},

	{name: "runtime.alloc_gb", unit: "GB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},

	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead", unit: "ratio", better: "lower"},
}

// allMetrics lists every metric the driver can print, end-to-end first.
var allMetrics = append(append([]metricDef(nil), endToEnd...), perLayer...)

// metricByName indexes allMetrics.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(allMetrics))
	for _, d := range allMetrics {
		m[d.name] = d
	}
	return m
}()

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	run  func(*runCtx) error
}

var workloads = []workloadDef{
	{"flow-paper", "Fig4Ks on panel d, then FailureSweep on panel a: walk-dominated (lazy multi-K evaluator, selectors, sampler); the failure phase drives core's repair side", runFlowPaper},
	{"mega-stream", "MegaFabricSweep on 6912 endpoints, disjoint then random-K: compile-dominated (closed-form and generic segment fill, resident pool), the walk is a sliver", runMegaStream},
	{"flit-paper", "flit.Run on the Table 1 fabric, oblivious and adaptive-K at load 0.3 and 0.9: flit-engine-dominated; core and flow appear only in setup", runFlitPaper},
	{"serve-churn", "in-process xgftserve over loopback, closed and open loop, quiet and with a cable flapping every 50 ms: core is read while it is written", runServeChurn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
