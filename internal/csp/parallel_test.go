package csp

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// randomInstance builds a seeded random minimisation instance: n
// variables with random-width domains, a web of random binary
// constraints, minimising the maximum. Returned fresh per call so
// sequential and parallel runs never share a store.
func randomInstance(seed int64, n int) (*Store, []*Var, *Var) {
	rng := rand.New(rand.NewSource(seed))
	st := NewStore()
	vars := make([]*Var, n)
	for i := range vars {
		lo := rng.Intn(4)
		vars[i] = st.NewVarRange("x", lo, lo+3+rng.Intn(2*n))
	}
	if rng.Intn(2) == 0 {
		AllDifferent(st, vars...)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch rng.Intn(4) {
			case 0:
				NotEqualOffset(st, vars[i], vars[j], rng.Intn(3)-1)
			case 1:
				LessEqOffset(st, vars[i], vars[j], rng.Intn(2))
			}
		}
	}
	obj := st.NewVarRange("obj", 0, 4+2*n+4)
	MaxOf(st, obj, vars...)
	return st, vars, obj
}

// TestParallelMatchesSequential is the determinism property test over
// a seeded matrix of random instances: every exhaustive Workers > 1
// Minimize run returns the sequential objective, proves it optimal, and
// reports one and the same assignment across repeats and worker counts
// {2, 4, 8}. Under a static ChooseVar that assignment is also the
// sequential one (both are the first optimal solution in DFS order);
// under the default SmallestDomain it need not be. Run it under -race;
// -short keeps one repeat per worker count for many-count race runs.
func TestParallelMatchesSequential(t *testing.T) {
	repeats := 50
	if testing.Short() {
		repeats = 1
	}
	snapshot := func(s *Store, nVars int) []int {
		vals := make([]int, nVars)
		for i := 0; i < nVars; i++ {
			vals[i] = s.Vars()[i].Value()
		}
		return vals
	}
	choosers := []struct {
		name   string
		choose VarChooser
		static bool
	}{
		{"smallest-domain", SmallestDomain, false},
		{"first-unassigned", FirstUnassigned, true},
	}
	for _, ch := range choosers {
		for seed := int64(1); seed <= 10; seed++ {
			n := 4 + int(seed)%4
			st, vars, obj := randomInstance(seed, n)
			var seqSol []int
			seq, err := Minimize(st, vars, obj, Options{ChooseVar: ch.choose}, func(s *Store, _ int) {
				seqSol = snapshot(s, len(vars))
			})
			if err != nil {
				t.Fatalf("%s seed %d: Minimize: %v", ch.name, seed, err)
			}
			if !seq.Optimal {
				t.Fatalf("%s seed %d: sequential run not exhaustive", ch.name, seed)
			}
			var first []int
			for _, workers := range []int{2, 4, 8} {
				for rep := 0; rep < repeats; rep++ {
					pst, pvars, pobj := randomInstance(seed, n)
					var parSol []int
					par, err := Minimize(pst, pvars, pobj, Options{ChooseVar: ch.choose, Workers: workers}, func(s *Store, _ int) {
						parSol = snapshot(s, len(pvars))
					})
					if err != nil {
						t.Fatalf("%s seed %d workers %d: Minimize: %v", ch.name, seed, workers, err)
					}
					if par.Found != seq.Found {
						t.Fatalf("%s seed %d workers %d: Found %v, sequential %v", ch.name, seed, workers, par.Found, seq.Found)
					}
					if !par.Optimal {
						t.Fatalf("%s seed %d workers %d: parallel run not exhaustive (reason %v)", ch.name, seed, workers, par.Reason)
					}
					if !seq.Found {
						continue
					}
					if par.Best != seq.Best {
						t.Fatalf("%s seed %d workers %d: objective %d, sequential %d", ch.name, seed, workers, par.Best, seq.Best)
					}
					if first == nil {
						first = parSol
						if ch.static && !equalInts(first, seqSol) {
							t.Fatalf("%s seed %d workers %d: assignment %v, sequential %v", ch.name, seed, workers, first, seqSol)
						}
					} else if !equalInts(parSol, first) {
						t.Fatalf("%s seed %d workers %d repeat %d: assignment %v, earlier parallel runs %v",
							ch.name, seed, workers, rep, parSol, first)
					}
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIncumbentOffer checks the shared incumbent's acceptance rule and
// cut: a strict improvement always wins, a tie only from an earlier
// subtree, and the cut is best−1 at or after the incumbent's subtree
// and best before it. Only strict improvements enter the trace; every
// accepted offer reaches onImproved.
func TestIncumbentOffer(t *testing.T) {
	st := NewStore()
	obj := st.NewVarRange("obj", 0, 9)
	s, err := newSearch(Options{}, obj)
	if err != nil {
		t.Fatal(err)
	}
	var reported []int
	s.onImproved = func(_ *Store, v int) { reported = append(reported, v) }
	if got := s.cutFor(0); got != math.MaxInt {
		t.Fatalf("cut without an incumbent = %d, want unbounded", got)
	}
	offers := []struct {
		obj     int
		sub     int64
		best    int
		bestSub int64
	}{
		{7, 3, 7, 3}, // first incumbent
		{7, 5, 7, 3}, // tie from a later subtree: rejected
		{8, 0, 7, 3}, // worse: rejected
		{7, 1, 7, 1}, // tie from an earlier subtree: accepted
		{5, 4, 5, 4}, // strict improvement: accepted
	}
	for i, o := range offers {
		s.offer(st, o.obj, o.sub, 0, nil)
		if s.best != o.best || s.bestSub != o.bestSub {
			t.Fatalf("offer %d (%d@%d): incumbent %d@%d, want %d@%d",
				i, o.obj, o.sub, s.best, s.bestSub, o.best, o.bestSub)
		}
	}
	for sub, want := range map[int64]int{0: 5, 3: 5, 4: 4, 9: 4} {
		if got := s.cutFor(sub); got != want {
			t.Errorf("cutFor(%d) = %d, want %d", sub, got, want)
		}
	}
	if len(s.trace) != 2 || s.trace[0].Objective != 7 || s.trace[1].Objective != 5 {
		t.Errorf("trace %+v, want objectives [7 5]", s.trace)
	}
	if !equalInts(reported, []int{7, 7, 5}) {
		t.Errorf("onImproved saw %v, want [7 7 5]", reported)
	}
}

// TestIncumbentConcurrentOffers races publishers against a reader:
// the cut a worker reads never loosens, and the run ends on the least
// (objective, subtree) pair offered.
func TestIncumbentConcurrentOffers(t *testing.T) {
	const (
		publishers = 8
		perWorker  = 2000
	)
	st := NewStore()
	obj := st.NewVarRange("obj", 0, 1)
	s, err := newSearch(Options{}, obj)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.offer(st, 2*perWorker-2*i+w%2, int64(w), 0, nil)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		prev := math.MaxInt
		for i := 0; i < 10000; i++ {
			cur := s.cutFor(0)
			if cur > prev {
				t.Errorf("cut loosened: %d -> %d", prev, cur)
				return
			}
			prev = cur
		}
	}()
	wg.Wait()
	<-done
	// The least objective offered is 2 (i = perWorker-1, even w); the
	// earliest subtree offering it is w = 0.
	if s.best != 2 || s.bestSub != 0 {
		t.Fatalf("final incumbent %d@%d, want 2@0", s.best, s.bestSub)
	}
	for i := 1; i < len(s.trace); i++ {
		if s.trace[i].Objective >= s.trace[i-1].Objective {
			t.Fatalf("trace not strictly improving: %+v", s.trace)
		}
	}
}

// TestParallelMatchesSequentialDeepSplit repeats the property at
// SplitDepth 2 and 3, where intermediate split levels are committed on
// the root store.
func TestParallelMatchesSequentialDeepSplit(t *testing.T) {
	for seed := int64(20); seed <= 25; seed++ {
		st, vars, obj := randomInstance(seed, 5)
		seq, err := Minimize(st, vars, obj, Options{}, nil)
		if err != nil {
			t.Fatalf("seed %d: Minimize: %v", seed, err)
		}
		for _, depth := range []int{2, 3} {
			pst, pvars, pobj := randomInstance(seed, 5)
			par, err := Minimize(pst, pvars, pobj, Options{Workers: 4, SplitDepth: depth}, nil)
			if err != nil {
				t.Fatalf("seed %d depth %d: Minimize: %v", seed, depth, err)
			}
			if par.Found != seq.Found || (seq.Found && par.Best != seq.Best) || !par.Optimal {
				t.Fatalf("seed %d depth %d: (found %v best %d optimal %v), sequential (found %v best %d)",
					seed, depth, par.Found, par.Best, par.Optimal, seq.Found, seq.Best)
			}
		}
	}
}

// TestSolveParallelCountsSolutions checks exhaustive parallel
// enumeration delivers exactly the sequential solution count.
func TestSolveParallelCountsSolutions(t *testing.T) {
	build := func() (*Store, []*Var) {
		st := NewStore()
		n := 6
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = st.NewVarRange("q", 0, n-1)
		}
		AllDifferent(st, vars...)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				NotEqualOffset(st, vars[i], vars[j], j-i)
				NotEqualOffset(st, vars[j], vars[i], j-i)
			}
		}
		return st, vars
	}
	st, vars := build()
	seq, err := Solve(st, vars, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pst, pvars := build()
		par, err := Solve(pst, pvars, Options{Workers: workers}, func(*Store) bool { return true })
		if err != nil {
			t.Fatalf("workers %d: Solve: %v", workers, err)
		}
		if !par.Complete || par.Reason != StopExhausted {
			t.Fatalf("workers %d: not exhausted: %+v", workers, par)
		}
		if par.Solutions != seq.Solutions {
			t.Fatalf("workers %d: %d solutions, sequential %d", workers, par.Solutions, seq.Solutions)
		}
	}
}

// TestSolveParallelMaxSolutions checks the cut fires and at most
// MaxSolutions callbacks run.
func TestSolveParallelMaxSolutions(t *testing.T) {
	st := NewStore()
	vars := make([]*Var, 5)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 4)
	}
	AllDifferent(st, vars...)
	delivered := 0
	res, err := Solve(st, vars, Options{Workers: 4, MaxSolutions: 3}, func(*Store) bool {
		delivered++ // serialised by the parState mutex
		return true
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Solutions != 3 || delivered != 3 {
		t.Fatalf("got %d solutions (%d callbacks), want 3", res.Solutions, delivered)
	}
	if res.Reason != StopCut {
		t.Fatalf("reason %v, want cut", res.Reason)
	}
}

// eventCollector is a mutex-protected recorder for assertions on the
// merged event stream of a parallel run.
type eventCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *eventCollector) Record(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestParallelWorkerEvents checks every branch/backtrack/incumbent
// event from worker goroutines carries a worker attribution.
func TestParallelWorkerEvents(t *testing.T) {
	st, vars, obj := randomInstance(3, 5)
	var col eventCollector
	res, err := Minimize(st, vars, obj, Options{Workers: 4, Recorder: &col}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Optimal {
		t.Fatalf("run not exhaustive: %v", res.Reason)
	}
	branches, tagged := 0, 0
	for _, e := range col.events {
		switch e.Kind {
		case obs.KindBranch, obs.KindBacktrack, obs.KindIncumbent:
			branches++
			if e.Worker >= 1 {
				tagged++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no search events recorded")
	}
	if tagged == 0 {
		t.Fatal("no event carries a worker attribution")
	}
}

// TestParallelStallNodes checks StallNodes measures progress of the
// global incumbent: with a generous stall budget and a tiny space the
// run completes; with a tiny budget on a large space it stops stalled.
func TestParallelStallNodes(t *testing.T) {
	st := NewStore()
	vars := make([]*Var, 9)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 11)
	}
	AllDifferent(st, vars...)
	obj := st.NewVarRange("obj", 0, 11)
	MaxOf(st, obj, vars...)
	res, err := Minimize(st, vars, obj, Options{Workers: 4, StallNodes: 40}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if !res.Found {
		t.Fatal("no solution found before stalling")
	}
	if res.Reason == StopExhausted {
		t.Skip("instance too easy to exercise stalling")
	}
	if !res.Stalled || res.Reason != StopStalled {
		t.Fatalf("want stalled stop, got %+v", res)
	}
}

// TestParallelMaxNodes checks the global node budget stops the run
// with StopNodeLimit.
func TestParallelMaxNodes(t *testing.T) {
	st := NewStore()
	vars := make([]*Var, 10)
	for i := range vars {
		vars[i] = st.NewVarRange("v", 0, 14)
	}
	AllDifferent(st, vars...)
	obj := st.NewVarRange("obj", 0, 14)
	MaxOf(st, obj, vars...)
	res, err := Minimize(st, vars, obj, Options{Workers: 4, MaxNodes: 200}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Reason != StopNodeLimit {
		t.Fatalf("reason %v, want node-limit", res.Reason)
	}
	if res.Optimal {
		t.Fatal("node-limited run must not claim optimality")
	}
}

// TestParallelRejectsFuncProp checks the unclonable-store error path
// from the parallel entry point.
func TestParallelRejectsFuncProp(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	y := st.NewVarRange("y", 0, 5)
	st.Post(FuncProp(func(s *Store) error { return s.Remove(x, 3) }), x)
	_, err := Minimize(st, []*Var{x, y}, y, Options{Workers: 2}, nil)
	var ce *CloneError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CloneError, got %v", err)
	}
}

// TestOptionsValidation checks negative option values surface as typed
// *OptionError from every entry point instead of being silently
// accepted.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		field string
		opts  Options
	}{
		{"StallNodes", Options{StallNodes: -1}},
		{"MaxNodes", Options{MaxNodes: -7}},
		{"MaxSolutions", Options{MaxSolutions: -2}},
		{"Workers", Options{Workers: -1}},
		{"SplitDepth", Options{SplitDepth: -3}},
	}
	for _, tc := range cases {
		st := NewStore()
		x := st.NewVarRange("x", 0, 3)
		y := st.NewVarRange("y", 0, 3)
		vars := []*Var{x, y}

		check := func(entry string, err error) {
			t.Helper()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("%s with bad %s: want *OptionError, got %v", entry, tc.field, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("%s: OptionError names %q, want %q", entry, oe.Field, tc.field)
			}
		}
		_, err := Solve(st, vars, tc.opts, func(*Store) bool { return true })
		check("Solve", err)
		_, err = Minimize(st, vars, y, tc.opts, nil)
		check("Minimize", err)
	}
}

// TestMaxNodesSequential checks the node budget on the sequential
// entry points.
func TestMaxNodesSequential(t *testing.T) {
	build := func() (*Store, []*Var, *Var) {
		st := NewStore()
		vars := make([]*Var, 10)
		for i := range vars {
			vars[i] = st.NewVarRange("v", 0, 14)
		}
		AllDifferent(st, vars...)
		obj := st.NewVarRange("obj", 0, 14)
		MaxOf(st, obj, vars...)
		return st, vars, obj
	}
	st, vars, obj := build()
	res, err := Minimize(st, vars, obj, Options{MaxNodes: 100}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if res.Reason != StopNodeLimit || res.Nodes > 101 {
		t.Fatalf("want node-limit stop near 100 nodes, got reason %v after %d nodes", res.Reason, res.Nodes)
	}
	st2, vars2, _ := build()
	sres, err := Solve(st2, vars2, Options{MaxNodes: 100}, func(*Store) bool { return true })
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sres.Reason != StopNodeLimit || sres.Complete {
		t.Fatalf("want node-limit stop, got %+v", sres)
	}
}
