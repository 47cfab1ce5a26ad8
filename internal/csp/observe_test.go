package csp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventLog is a test Recorder capturing every event.
type eventLog struct {
	events []obs.Event
}

func (l *eventLog) Record(e obs.Event) { l.events = append(l.events, e) }

func (l *eventLog) count(k obs.EventKind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestSolveEmitsEvents(t *testing.T) {
	run := func(workers int) (SearchResult, *eventLog) {
		log := &eventLog{}
		st := NewStore()
		q := postQueens(st, 6)
		res, err := Solve(st, q, Options{Recorder: log, Workers: workers}, func(*Store) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		// The recorder is uninstalled after the search.
		if st.Recorder() != nil {
			t.Error("recorder left installed on store")
		}
		return res, log
	}
	res, log := run(0)
	if got := log.count(obs.KindSolution); got != res.Solutions {
		t.Errorf("solution events = %d, want %d", got, res.Solutions)
	}
	if got := int64(log.count(obs.KindBacktrack)); got != res.Backtracks {
		t.Errorf("backtrack events = %d, want %d", got, res.Backtracks)
	}
	if got := int64(log.count(obs.KindPropagate)); got != res.Propagations {
		t.Errorf("propagate events = %d, want %d", got, res.Propagations)
	}
	if log.count(obs.KindBranch) == 0 || log.count(obs.KindPrune) == 0 {
		t.Error("expected branch and prune events")
	}
	// Prune events from queens propagation must be attributed.
	attributed := false
	for _, e := range log.events {
		if e.Kind == obs.KindPrune && e.Prop == "csp.not-equal" {
			attributed = true
			break
		}
	}
	if !attributed {
		t.Error("no prune event attributed to csp.not-equal")
	}
	// Workers: 1 is the same single-job search as the default.
	res1, log1 := run(1)
	if res1 != res {
		t.Errorf("Workers 1 result %+v, Workers 0 %+v", res1, res)
	}
	sameEvents(t, log1.events, log.events)
}

// sameEvents asserts a Workers: 1 event stream equals the Workers: 0
// one, event for event, with no worker attribution.
func sameEvents(t *testing.T, got, want []obs.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Workers 1 emitted %d events, Workers 0 %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: Workers 1 %+v, Workers 0 %+v", i, got[i], want[i])
		}
		if got[i].Worker != 0 {
			t.Fatalf("event %d carries worker %d on a single-job run", i, got[i].Worker)
		}
	}
}

func TestSolveCountsWithoutRecorder(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 6)
	res, err := Solve(st, q, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Backtracks == 0 || res.Propagations == 0 {
		t.Fatalf("counters must be populated without a recorder: %+v", res)
	}
	if res.Reason != StopExhausted {
		t.Fatalf("reason = %v, want exhausted", res.Reason)
	}
}

func TestSolveStopReasons(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 8)
	res, err := Solve(st, q, Options{MaxSolutions: 2}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopCut {
		t.Errorf("MaxSolutions reason = %v, want cut", res.Reason)
	}

	st2 := NewStore()
	q2 := postQueens(st2, 10)
	res2, err := Solve(st2, q2, Options{Deadline: time.Now().Add(-time.Second)}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reason != StopTimeout {
		t.Errorf("deadline reason = %v, want timeout", res2.Reason)
	}
}

func TestMinimizeStopReasonDistinguishesCauses(t *testing.T) {
	// Proved optimal.
	st := NewStore()
	q := postQueens(st, 6)
	res, err := Minimize(st, q, q[0], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopExhausted || !res.Optimal {
		t.Errorf("proved run: reason=%v optimal=%v", res.Reason, res.Optimal)
	}

	// Stalled: descending values make the first incumbent poor, so the
	// run improves slowly and a 1-node stall budget trips quickly.
	st2 := NewStore()
	q2 := postQueens(st2, 8)
	res2, err := Minimize(st2, q2, q2[0], Options{StallNodes: 1, OrderValues: DescendingValues}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Found {
		t.Fatal("stalled run found nothing")
	}
	if res2.Reason != StopStalled || !res2.Stalled || res2.Optimal {
		t.Errorf("stalled run: reason=%v stalled=%v optimal=%v", res2.Reason, res2.Stalled, res2.Optimal)
	}

	// Timeout: a deadline already in the past aborts before any node.
	st3 := NewStore()
	q3 := postQueens(st3, 9)
	res3, err := Minimize(st3, q3, q3[0], Options{Deadline: time.Now().Add(-time.Second)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Reason != StopTimeout || res3.Stalled || res3.Optimal {
		t.Errorf("timeout run: reason=%v stalled=%v optimal=%v", res3.Reason, res3.Stalled, res3.Optimal)
	}
}

func TestMinimizeBestObjectiveTrace(t *testing.T) {
	run := func(workers int) (MinimizeResult, *eventLog) {
		st := NewStore()
		x := st.NewVarRange("x", 0, 9)
		y := st.NewVarRange("y", 0, 9)
		obj := st.NewVarRange("obj", 0, 18)
		Sum(st, obj, x, y)
		LessEqOffset(st, x, y, 2)
		log := &eventLog{}
		res, err := Minimize(st, []*Var{x, y}, obj, Options{Recorder: log, OrderValues: DescendingValues, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, log
	}
	res, log := run(0)
	if !res.Found || len(res.BestObjectiveTrace) == 0 {
		t.Fatalf("no objective trace: %+v", res)
	}
	trace := res.BestObjectiveTrace
	for i := 1; i < len(trace); i++ {
		if trace[i].Objective >= trace[i-1].Objective {
			t.Fatalf("trace not strictly improving: %+v", trace)
		}
		if trace[i].Nodes < trace[i-1].Nodes || trace[i].Elapsed < trace[i-1].Elapsed {
			t.Fatalf("trace not monotone in nodes/time: %+v", trace)
		}
	}
	last := trace[len(trace)-1]
	if last.Objective != res.Best {
		t.Fatalf("final trace point %d != best %d", last.Objective, res.Best)
	}
	// Incumbent events mirror the trace.
	if got := log.count(obs.KindIncumbent); got != len(trace) {
		t.Errorf("incumbent events = %d, trace length = %d", got, len(trace))
	}
	finalSeen := false
	for _, e := range log.events {
		if e.Kind == obs.KindIncumbent && e.Objective == last.Objective {
			finalSeen = true
		}
	}
	if !finalSeen {
		t.Error("final incumbent missing from event stream")
	}
	// Workers: 1 is the same single-job search as the default: equal
	// results and trace (up to wall-clock Elapsed) and event stream.
	res1, log1 := run(1)
	trace1 := res1.BestObjectiveTrace
	if len(trace1) != len(trace) {
		t.Fatalf("Workers 1 trace %+v, Workers 0 %+v", trace1, trace)
	}
	for i := range trace {
		if trace1[i].Objective != trace[i].Objective || trace1[i].Nodes != trace[i].Nodes {
			t.Fatalf("Workers 1 trace %+v, Workers 0 %+v", trace1, trace)
		}
	}
	res1.BestObjectiveTrace, res.BestObjectiveTrace = nil, nil
	if !reflect.DeepEqual(res1, res) {
		t.Errorf("Workers 1 result %+v, Workers 0 %+v", res1, res)
	}
	sameEvents(t, log1.events, log.events)
}

func TestStorePropagatorStats(t *testing.T) {
	st := NewStore()
	q := postQueens(st, 6)
	if _, err := Solve(st, q, Options{}, func(*Store) bool { return true }); err != nil {
		t.Fatal(err)
	}
	stats := st.PropagatorStats()
	if len(stats) == 0 {
		t.Fatal("no propagator stats")
	}
	var total int64
	for _, s := range stats {
		if s.Name == "" {
			t.Error("unnamed propagator in stats")
		}
		total += s.Runs
	}
	if total != st.Stats() {
		t.Fatalf("per-propagator runs %d != total %d", total, st.Stats())
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Runs > stats[i-1].Runs {
			t.Fatal("stats not sorted most-run first")
		}
	}
	if stats[0].Name != "csp.not-equal" {
		t.Errorf("dominant propagator = %q, want csp.not-equal", stats[0].Name)
	}
}

func TestStorePropagationTiming(t *testing.T) {
	st := NewStore()
	st.EnableTiming(true)
	q := postQueens(st, 8)
	if _, err := Solve(st, q, Options{MaxSolutions: 1}, func(*Store) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st.PropagationTime() <= 0 {
		t.Fatal("propagation time not accumulated")
	}
}

func TestWithName(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	st.Post(WithName(FuncProp(func(s *Store) error { return nil }), "custom"), x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range st.PropagatorStats() {
		if s.Name == "custom" && s.Runs == 1 {
			return
		}
	}
	t.Fatalf("custom-named propagator missing: %+v", st.PropagatorStats())
}

func TestStopReasonString(t *testing.T) {
	want := map[StopReason]string{
		StopExhausted: "exhausted",
		StopTimeout:   "timeout",
		StopStalled:   "stalled",
		StopCut:       "cut",
		StopReason(9): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}
