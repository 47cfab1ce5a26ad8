package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/module"
	"repro/internal/obs"
)

// span is one timed call. Spans of one request share Req, the id of
// the request's root span: the HTTP client call. Replay spans are
// children of that root; they run after the load phase, so they are
// linked to the root by id, not nested inside it in time.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Req    uint64         `json:"req"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	Dur    int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing: the untraced phases use nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent uint64, name string, start time.Time, d time.Duration, attrs map[string]any) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	req := parent
	if req == 0 {
		req = t.next
	}
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), Dur: int64(d), Attrs: attrs})
	return t.next
}

// root records a request's client span and returns its id, which is
// also the request id.
func (t *tracer) root(name string, start time.Time, d time.Duration, attrs map[string]any) uint64 {
	return t.add(0, name, start, d, attrs)
}

// child records one replayed layer call of request req.
func (t *tracer) child(req uint64, name string, start time.Time, d time.Duration, attrs map[string]any) {
	t.add(req, name, start, d, attrs)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers collects the replayed per-layer samples by series name.
type layers struct {
	series map[string][]float64
	// pinFailures lists cross-check mismatches against BENCH_solver.json.
	pinFailures []string
	// divergences counts replayed session decisions that differ from
	// the server's answers (possible when a replan hits its deadline).
	divergences int
}

func newLayers() *layers { return &layers{series: map[string][]float64{}} }

func (l *layers) add(name string, v float64) { l.series[name] = append(l.series[name], v) }

func (l *layers) sum(name string) float64 {
	s := 0.0
	for _, v := range l.series[name] {
		s += v
	}
	return s
}

// solvePhases are the core.Options.Metrics phase timers a solve
// reports, by the series they feed.
var solvePhases = map[string]string{
	"model_build_ms": "phase_model_build",
	"presolve_ms":    "phase_presolve",
	"search_ms":      "phase_search",
	"propagation_ms": "phase_propagation",
}

// phaseClock reads the total and count of every solve phase timer.
type phaseClock map[string][2]float64

func readPhases(reg *obs.Registry) phaseClock {
	c := phaseClock{}
	for series, name := range solvePhases {
		h := reg.Histogram(name + "_seconds")
		c[series] = [2]float64{h.Sum() * 1e3, float64(h.Count())}
	}
	return c
}

// addSolves records the phase time each solve between two readings
// spent; a phase that did not run adds nothing.
func (l *layers) addSolves(before, after phaseClock) {
	for series, a := range after {
		if b := before[series]; a[1] > b[1] {
			l.add(series, a[0]-b[0])
		}
	}
}

// solve runs one sequential (*core.Placer).Place with a private metrics
// registry, recording its time and allocation and the core, presolve,
// csp and geost numbers the registry and the result expose.
func (l *layers) solve(tr *tracer, req uint64, region *fabric.Region, mods []*module.Module, opts core.Options) (*core.Result, time.Duration, error) {
	reg := obs.NewRegistry()
	opts.Metrics = reg
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := core.New(region, opts).Place(mods)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, 0, fmt.Errorf("replay solve: %w", err)
	}
	phases := readPhases(reg)
	allocMB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	allocs := ms1.Mallocs - ms0.Mallocs
	tr.child(req, "core.place", t0, d, map[string]any{
		"modules": len(mods), "nodes": res.Nodes, "backtracks": res.Backtracks, "height": res.Height,
		"alloc_mb": allocMB, "allocs": allocs,
		"model_build_ms": phases["model_build_ms"][0], "search_ms": phases["search_ms"][0],
		"propagation_ms": phases["propagation_ms"][0],
	})
	l.add("place_ms", ms(d))
	l.add("place_alloc_mb", allocMB)
	l.add("place_allocs", float64(allocs))
	l.addSolves(phaseClock{}, phases)
	l.add("nodes", float64(res.Nodes))
	l.add("backtracks", float64(res.Backtracks))
	l.add("propagations", float64(res.Propagations))
	if ps := res.PresolveStats; ps != nil {
		l.add("alternatives_dropped", float64(ps.AlternativesDropped))
		l.add("lex_constraints", float64(ps.LexConstraints))
		l.add("bound_delta", float64(ps.BoundDelta))
		if ps.WarmHeight > 0 && res.Found {
			l.add("warm_gap_rows", float64(ps.WarmHeight-res.Height))
		}
	}
	return res, d, nil
}
