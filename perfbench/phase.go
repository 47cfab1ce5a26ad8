package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/service"
)

// opRec is one client operation as the caller saw it.
type opRec struct {
	kind string
	lat  time.Duration
	ok   bool
	// miss marks a cold solve: an X-Cache miss on /v1/place, or a
	// session arrival greedy placement could not admit.
	miss bool
	// bookkeeping marks session requests that place nothing (release,
	// stats, create, delete). They count in ops_per_s and ok_pct but not
	// in the latency percentiles: sub-millisecond and about as many as
	// the arrivals, they would put the median on the boundary between
	// two classes, measuring the mix instead of the latency.
	bookkeeping bool
	req         uint64
}

// phase is one load phase's record. Each client fills its own phase;
// merge folds them together afterwards.
type phase struct {
	elapsed    time.Duration
	ops        []opRec
	arrivals   int
	admitted   int
	util       []float64
	retries    int
	violations []string
	notes      []string
	calls      []placeCall
	sessions   []*sessionLog
	// mem samples resident memory every 10 ms (see memSampler).
	mem []float64

	before, after service.StatsResponse
}

// violate records a correctness violation: an answer the gate proved
// wrong. Any violation fails the run.
func (ph *phase) violate(format string, args ...any) {
	ph.violations = append(ph.violations, fmt.Sprintf(format, args...))
}

// note records a failed operation that is not a wrong answer (refused,
// timed out, approximate); it counts against ok_pct.
func (ph *phase) note(format string, args ...any) {
	if len(ph.notes) < 20 {
		ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) merge(o *phase) {
	ph.ops = append(ph.ops, o.ops...)
	ph.arrivals += o.arrivals
	ph.admitted += o.admitted
	ph.util = append(ph.util, o.util...)
	ph.retries += o.retries
	ph.violations = append(ph.violations, o.violations...)
	ph.notes = append(ph.notes, o.notes...)
	ph.calls = append(ph.calls, o.calls...)
	ph.sessions = append(ph.sessions, o.sessions...)
}

func (ph *phase) failed() int {
	n := 0
	for _, op := range ph.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of one load phase.
func (ph *phase) endToEnd(setupS []float64) map[string]value {
	var all, miss []float64
	for _, op := range ph.ops {
		if op.bookkeeping {
			continue
		}
		all = append(all, ms(op.lat))
		if op.miss {
			miss = append(miss, ms(op.lat))
		}
	}
	ok := len(ph.ops) - ph.failed()
	pct := func(num, den int) value {
		if den == 0 {
			return value{N: den}
		}
		return value{100 * float64(num) / float64(den), den}
	}
	util := meanOf(ph.util)
	util.V *= 100
	return map[string]value{
		"setup_s":     medianOf(setupS),
		"op_p50_ms":   medianOf(all),
		"op_p99_ms":   {quantileOr0(all, 0.99), len(all)},
		"ops_per_s":   {float64(ok) / ph.elapsed.Seconds(), ok},
		"ok_pct":      pct(ok, len(ph.ops)),
		"util_pct":    util,
		"miss_p50_ms": medianOf(miss),
		"accept_pct":  pct(ph.admitted, ph.arrivals),
		"peak_rss_mb": {quantileOr0(ph.mem, 0.95), len(ph.mem)},
	}
}

func quantileOr0(xs []float64, q float64) float64 {
	v := quantile(append([]float64(nil), xs...), q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// perLayerValues turns the replayed samples and the traced phase's
// counters into the per-layer metrics. base is the untraced phase the
// tracing overhead is measured against.
func perLayerValues(l *layers, base, traced *phase) map[string]value {
	s := l.series
	delta := func(f func(service.StatsResponse) int64) value {
		return value{float64(f(traced.after) - f(traced.before)), 1}
	}
	requests := float64(traced.after.Requests - traced.before.Requests)
	hits := float64(traced.after.CacheHits + traced.after.DedupHits - traced.before.CacheHits - traced.before.DedupHits)
	if len(traced.calls) == 0 {
		requests = 0 // session requests never touch the cache
	}
	overhead := value{}
	if b, t := base.endToEnd(nil)["op_p50_ms"], traced.endToEnd(nil)["op_p50_ms"]; b.N > 0 && t.N > 0 {
		overhead = value{100 * (t.V/b.V - 1), t.N}
	}
	return map[string]value{
		"service.decode_ms.generate":       medianOf(s["decode_ms.generate"]),
		"service.decode_ms.explicit":       medianOf(s["decode_ms.explicit"]),
		"service.decode_alloc_kb.generate": meanOf(s["decode_alloc_kb.generate"]),
		"service.decode_alloc_kb.explicit": meanOf(s["decode_alloc_kb.explicit"]),
		"service.residual_ms":              medianOf(s["residual_ms"]),
		"service.hit_ratio":                ratioOf(hits, requests, int(requests)),
		"service.miss_residual_ms":         medianOf(s["miss_residual_ms"]),
		"service.rejected":                 delta(func(st service.StatsResponse) int64 { return st.Rejected }),
		"service.timeouts":                 delta(func(st service.StatsResponse) int64 { return st.Timeouts }),
		"service.degraded":                 delta(func(st service.StatsResponse) int64 { return st.Degraded }),
		"workload.generate_ms":             medianOf(s["generate_ms"]),
		"canon.digest_ms":                  medianOf(s["digest_ms"]),
		"client.retries":                   {float64(traced.retries), len(traced.ops)},
		"core.place_ms":                    medianOf(s["place_ms"]),
		"core.place_alloc_mb":              meanOf(s["place_alloc_mb"]),
		"core.place_allocs":                meanOf(s["place_allocs"]),
		"core.model_build_ms":              medianOf(s["model_build_ms"]),
		"presolve.ms":                      medianOf(s["presolve_ms"]),
		"presolve.warm_gap_rows":           meanOf(s["warm_gap_rows"]),
		"presolve.alternatives_dropped":    meanOf(s["alternatives_dropped"]),
		"presolve.lex_constraints":         meanOf(s["lex_constraints"]),
		"presolve.bound_delta":             meanOf(s["bound_delta"]),
		"csp.nodes":                        meanOf(s["nodes"]),
		"csp.backtracks":                   meanOf(s["backtracks"]),
		"csp.propagations":                 meanOf(s["propagations"]),
		"csp.search_ms":                    medianOf(s["search_ms"]),
		"csp.ns_per_node":                  ratioOf(l.sum("search_ms")*1e6, l.sum("nodes"), len(s["nodes"])),
		"geost.propagation_ms":             medianOf(s["propagation_ms"]),
		"geost.propagations_per_node":      ratioOf(l.sum("propagations"), l.sum("nodes"), len(s["nodes"])),
		"online.place_us":                  medianOf(s["online_place_us"]),
		"online.release_us":                medianOf(s["online_release_us"]),
		"online.mer_us":                    medianOf(s["online_mer_us"]),
		"online.replan_ms":                 medianOf(s["online_replan_ms"]),
		"online.defrag_ms":                 medianOf(s["online_defrag_ms"]),
		"online.replan_admit_ratio":        ratioOf(l.sum("online_replan_admitted"), float64(len(s["online_replan_admitted"])), len(s["online_replan_admitted"])),
		"online.defrag_ok_ratio":           ratioOf(l.sum("online_defrag_ok"), float64(len(s["online_defrag_ok"])), len(s["online_defrag_ok"])),
		"online.defrag_moves":              meanOf(s["online_defrag_moves"]),
		"online.frag_after":                meanOf(s["online_frag_after"]),
		"online.reconfig_ms":               ratioOf(l.sum("online_reconfig_ms"), l.sum("online_admitted"), len(s["online_reconfig_ms"])),
		"obs.tracing_overhead_pct":         overhead,
	}
}

// byKind summarises latency per operation kind, for the report.
func (ph *phase) byKind() map[string]value {
	lat := map[string][]float64{}
	for _, op := range ph.ops {
		lat[op.kind] = append(lat[op.kind], ms(op.lat))
	}
	out := map[string]value{}
	for k, xs := range lat {
		out[k+".p50_ms"] = medianOf(xs)
		out[k+".p99_ms"] = value{quantileOr0(xs, 0.99), len(xs)}
	}
	return out
}
