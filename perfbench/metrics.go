package main

import (
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. The catalog below is
// the single source of the names, units and directions; BENCHMARK.json
// lists the same metrics (catalog_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	doc    string
}

// endToEnd are the metrics a user of the service sees. They come only
// from untraced load phases.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of five set-ups: start placed in-process, build the inputs, warm the cache (service-mixed) or the sessions (sessions-churn)"},
	{"op_p50_ms", "ms", "lower", "median latency of one operation, measured at the HTTP client"},
	{"op_p99_ms", "ms", "lower", "p99 latency of one operation (offline-table1: fewer than 100 samples, so this is its slowest solve)"},
	{"ops_per_s", "1/s", "higher", "completed operations per second of measured time"},
	{"ok_pct", "%", "higher", "100 - error_pct: operations that succeeded with an exact, valid answer, as a share of all attempted"},
	{"util_pct", "%", "higher", "mean utilization of found placements; sessions-churn: mean device utilization sampled at every arrival"},
	{"miss_p50_ms", "ms", "lower", "median cold-solve latency (offline-table1: every request; sessions-churn: arrivals greedy placement could not admit)"},
	{"accept_pct", "%", "higher", "arrivals admitted as a share of arrivals (place workloads: requests answered with a placement)"},
	{"peak_rss_mb", "MB", "lower", "resident Go memory of the process (server and clients), 95th percentile of 10 ms samples over the measured phase"},
}

// perLayer are the numbers of single layers. They come only from the
// traced run: the traced load phase's requests replayed in-process
// through each layer's public functions. A layer that does no work on
// a workload reports 0.
var perLayer = []metricDef{
	{"service.decode_ms.generate", "ms", "lower", "service.DecodeRequest on generate-form bodies, median"},
	{"service.decode_ms.explicit", "ms", "lower", "service.DecodeRequest on explicit tile-list bodies, median"},
	{"service.decode_alloc_kb.generate", "KiB", "lower", "bytes allocated by one generate-form decode, mean"},
	{"service.decode_alloc_kb.explicit", "KiB", "lower", "bytes allocated by one explicit-form decode, mean"},
	{"service.residual_ms", "ms", "lower", "cache-hit latency minus replayed decode and digest: HTTP, routing, LRU, body write; median"},
	{"service.hit_ratio", "ratio", "higher", "cache hits over /v1/place requests in the traced phase, from /v1/stats deltas"},
	{"service.miss_residual_ms", "ms", "lower", "cache-miss latency minus replayed decode, digest and solve, mostly queueing; median"},
	{"service.rejected", "count", "lower", "/v1/stats rejected delta over the traced phase"},
	{"service.timeouts", "count", "lower", "/v1/stats timeouts delta over the traced phase"},
	{"service.degraded", "count", "lower", "/v1/stats degraded delta over the traced phase"},
	{"workload.generate_ms", "ms", "lower", "workload.Generate on the request's generate spec, median"},
	{"canon.digest_ms", "ms", "lower", "(*canon.Request).Digest on the decoded request, median"},
	{"client.retries", "count", "lower", "retries made by internal/client over the traced phase"},
	{"core.place_ms", "ms", "lower", "sequential (*core.Placer).Place on the solved requests, median (place workloads only)"},
	{"core.place_alloc_mb", "MB", "lower", "bytes allocated by one Place, mean (sessions-churn: by one State.Defrag, whose compaction solve dominates)"},
	{"core.place_allocs", "count", "lower", "heap allocations of one Place, mean (sessions-churn: of one State.Defrag)"},
	{"core.model_build_ms", "ms", "lower", "phase_model_build from core.Options.Metrics, median (sessions-churn: the State's replan and compaction solves)"},
	{"presolve.ms", "ms", "lower", "phase_presolve from core.Options.Metrics, median over solves that presolve"},
	{"presolve.warm_gap_rows", "rows", "lower", "warm-start height minus final height, mean"},
	{"presolve.alternatives_dropped", "count", "higher", "PresolveStats.AlternativesDropped, mean per solve"},
	{"presolve.lex_constraints", "count", "higher", "PresolveStats.LexConstraints, mean per solve"},
	{"presolve.bound_delta", "count", "higher", "PresolveStats.BoundDelta, mean per solve"},
	{"csp.nodes", "count", "lower", "core.Result.Nodes, mean per solve (place workloads only: online.State keeps its solves' results)"},
	{"csp.backtracks", "count", "lower", "core.Result.Backtracks, mean per solve"},
	{"csp.propagations", "count", "lower", "core.Result.Propagations, mean per solve"},
	{"csp.search_ms", "ms", "lower", "phase_search from core.Options.Metrics, median"},
	{"csp.ns_per_node", "ns", "lower", "total search time over total nodes"},
	{"geost.propagation_ms", "ms", "lower", "phase_propagation from core.Options.Metrics, median"},
	{"geost.propagations_per_node", "ratio", "lower", "total propagations over total nodes"},
	{"online.place_us", "us", "lower", "online.State.Place admitted greedily, median"},
	{"online.release_us", "us", "lower", "online.State.Release, median"},
	{"online.mer_us", "us", "lower", "online.MaximalEmptyRects on the session occupancy before each arrival, median"},
	{"online.replan_ms", "ms", "lower", "online.State.Place calls that fell back to a CP replan, median"},
	{"online.defrag_ms", "ms", "lower", "online.State.Defrag, median"},
	{"online.replan_admit_ratio", "ratio", "higher", "replans that admitted over replans attempted"},
	{"online.defrag_ok_ratio", "ratio", "higher", "defrags that found a safe move order over defrags attempted"},
	{"online.defrag_moves", "count", "lower", "relocations per successful defrag, mean"},
	{"online.frag_after", "ratio", "lower", "free-space fragmentation after each successful defrag, mean"},
	{"online.reconfig_ms", "ms", "lower", "frame-model reconfiguration time charged per admitted arrival, mean"},
	{"obs.tracing_overhead_pct", "%", "lower", "traced phase op_p50_ms over untraced phase op_p50_ms, minus 100"},
}

// value is one reported number with the sample count behind it.
type value struct {
	V float64 `json:"value"`
	N int     `json:"samples"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// medianOf and meanOf wrap a sample set as a reported value; an empty
// set reports 0 with no samples (the layer did no work).
func medianOf(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	return value{quantile(append([]float64(nil), xs...), 0.5), len(xs)}
}

func meanOf(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	return value{mean(xs), len(xs)}
}

// ratioOf reports num/den over n samples; 0 when den is 0.
func ratioOf(num, den float64, n int) value {
	if den == 0 {
		return value{N: n}
	}
	return value{num / den, n}
}
