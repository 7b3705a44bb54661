package main

import "fmt"

// metricDecl declares one metric: its unit, whether higher or lower is
// better, and what it measures. BENCHMARK.json declares the same metrics;
// TestBenchmarkJSONSchema keeps the two in step.
type metricDecl struct {
	name, unit, better, help string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them, and none is ever 0.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", "median over set-up rounds of start → ready for the first timed op"},
	{"runs_per_s", "runs/s", "higher", "simulation results delivered per second of the timed window"},
	{"latency_p50_ms", "ms", "lower", "median op latency (sweep call; or POST sent → result body read)"},
	{"latency_p99_ms", "ms", "lower", "nearest-rank 99th percentile op latency"},
	{"peak_rss_mb", "MB", "lower", "peak resident set of the workload's process"},
}

// perLayer are the traced run's metrics. Every workload reports every one;
// a layer a workload does not exercise reads 0.
var perLayer = []metricDecl{
	{"client.submit_ms_p50", "ms", "lower", "client.SubmitRun call"},
	{"client.follow_ms_p50", "ms", "lower", "client.FollowRun call (SSE until terminal)"},
	{"client.get_ms_p50", "ms", "lower", "client.Run call"},
	{"client.result_kb", "KB", "lower", "mean result body size"},
	{"client.overhead_ms_p50", "ms", "lower", "client call minus the front-door handler time of the same request"},
	{"server.requests", "count", "lower", "requests through server.New handlers in the window"},
	{"server.non2xx", "count", "lower", "of those, answered outside 2xx"},
	{"server.submit_ms_p50", "ms", "lower", "POST /v1/runs handler time"},
	{"server.submit_ms_p99", "ms", "lower", "POST /v1/runs handler time"},
	{"server.get_ms_p50", "ms", "lower", "GET /v1/runs/{id} handler time"},
	{"server.get_ms_p99", "ms", "lower", "GET /v1/runs/{id} handler time"},
	{"runqueue.queue_wait_ms_p50", "ms", "lower", "snapshot started − submitted"},
	{"runqueue.queue_wait_ms_p99", "ms", "lower", "snapshot started − submitted"},
	{"runqueue.attempt_ms_p50", "ms", "lower", "snapshot finished − started"},
	{"runqueue.attempt_ms_p99", "ms", "lower", "snapshot finished − started"},
	{"runqueue.attempt_overhead_ms_p99", "ms", "lower", "attempt minus its system run"},
	{"runqueue.cache_hits", "count", "higher", "pdpad_cache_hits_total over the window"},
	{"runqueue.cache_misses", "count", "lower", "pdpad_cache_misses_total over the window"},
	{"runqueue.cache_hit_ratio", "ratio", "higher", "hits / (hits + misses)"},
	{"system.runs", "count", "higher", "simulations the window ran"},
	{"system.run_ms_p50", "ms", "lower", "one simulation"},
	{"system.run_ms_p99", "ms", "lower", "one simulation"},
	{"system.events_per_run", "events", "lower", "engine events per run (serial pass)"},
	{"system.ns_per_event", "ns", "lower", "simulation time per engine event (serial pass)"},
	{"system.allocs_per_run", "allocs", "lower", "heap allocations per run (serial pass)"},
	{"system.kb_per_run", "KB", "lower", "heap bytes allocated per run (serial pass)"},
	{"workload.calls", "count", "lower", "workload.Generate calls in the serial pass"},
	{"workload.generate_ms_p50", "ms", "lower", "one workload.Generate call"},
	{"sweep.wall_s", "s", "lower", "pdpasim.Sweep wall time over the serial pass's batches"},
	{"sweep.serial_wall_s", "s", "lower", "the serial pass over the same batches"},
	{"sweep.speedup", "x", "higher", "serial wall / sweep wall"},
	{"sweep.busy_share", "ratio", "higher", "serial work / (sweep wall × workers)"},
	{"store.appends", "count", "lower", "journal appends in the window"},
	{"store.append_mb", "MB", "lower", "journal bytes appended in the window"},
	{"store.fsyncs", "count", "lower", "journal fsyncs in the window"},
	{"store.compactions", "count", "lower", "compactions in the window"},
	{"store.live_mb", "MB", "lower", "store files on disk after the window"},
	{"store.append_us_p50", "us", "lower", "Append of the recorded payloads into a scratch store"},
	{"store.compact_ms_per_mb", "ms/MB", "lower", "Compact of the recovered set"},
	{"store.recover_ms_per_mb", "ms/MB", "lower", "store.Open of the final directories"},
	{"store.recover_s", "s", "lower", "reopen the stack on its stores until a run reads back byte-identical"},
	{"fleet.node_calls_per_run", "calls", "lower", "coordinator → node requests per op"},
	{"fleet.node_call_ms_p50", "ms", "lower", "one coordinator → node request, body closed"},
	{"fleet.node_kb_per_run", "KB", "lower", "node response bytes the coordinator read per op"},
	{"fleet.coord_submit_ms_p50", "ms", "lower", "coordinator POST /v1/runs handler time"},
	{"fleet.follow_lag_ms_p50", "ms", "lower", "client saw the terminal event − node finished_at"},
	{"fleet.follow_lag_ms_p99", "ms", "lower", "client saw the terminal event − node finished_at"},
	{"fleet.heartbeats", "count", "lower", "heartbeats the coordinator accepted in the window"},
	{"trace_overhead", "x", "lower", "untraced / traced runs_per_s"},
	{"yardstick_ms", "ms", "lower", "median yardstick round before set-up and after the stack stopped (machine speed)"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one declared list; set rejects undeclared
// names, so nothing undeclared can be emitted.
type metricSet struct {
	decls []metricDecl
	vals  map[string]metric
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, vals: map[string]metric{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic(fmt.Sprintf("pdpabench: undeclared metric %q", name))
}

// complete returns every declared metric, 0 where nothing was set.
func (m *metricSet) complete() map[string]metric {
	out := make(map[string]metric, len(m.decls))
	for _, d := range m.decls {
		v, ok := m.vals[d.name]
		if !ok {
			v = metric{Unit: d.unit}
		}
		out[d.name] = v
	}
	return out
}
