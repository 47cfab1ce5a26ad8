package csp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// VarChooser selects the next unassigned variable to branch on, or nil
// when all given variables are assigned.
type VarChooser func(vars []*Var) *Var

// ValueOrderer returns branching values for v in trial order. It must
// return values from v's current domain.
type ValueOrderer func(v *Var) []int

// FirstUnassigned branches on the variables in the order given.
func FirstUnassigned(vars []*Var) *Var {
	for _, v := range vars {
		if !v.Assigned() {
			return v
		}
	}
	return nil
}

// SmallestDomain implements first-fail: branch on an unassigned variable
// with the fewest remaining values (ties broken by order).
func SmallestDomain(vars []*Var) *Var {
	var best *Var
	for _, v := range vars {
		if v.Assigned() {
			continue
		}
		if best == nil || v.Size() < best.Size() {
			best = v
		}
	}
	return best
}

// AscendingValues tries domain values smallest-first.
func AscendingValues(v *Var) []int { return v.Domain().Values() }

// DescendingValues tries domain values largest-first.
func DescendingValues(v *Var) []int {
	vals := v.Domain().Values()
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

// PreferValues wraps a ValueOrderer so each variable tries a preferred
// value (keyed by variable id, so the preference survives store
// cloning) before the inner order. Variables without a preference, or
// whose preferred value has left the domain, keep the inner order
// untouched. When the preferences form a solution of the model, the
// first dive of a depth-first search reproduces it without
// backtracking — the mechanism behind warm-started branch-and-bound:
// the heuristic placement becomes the search's first incumbent and
// every later branch is taken with a real bound already in place.
func PreferValues(inner ValueOrderer, pref map[int]int) ValueOrderer {
	if inner == nil {
		inner = AscendingValues
	}
	if len(pref) == 0 {
		return inner
	}
	return func(v *Var) []int {
		out := inner(v)
		want, ok := pref[v.ID()]
		if !ok {
			return out
		}
		for i, val := range out {
			if val == want {
				copy(out[1:i+1], out[:i])
				out[0] = want
				break
			}
		}
		return out
	}
}

// Options configures search.
type Options struct {
	// ChooseVar selects the branching variable; default SmallestDomain.
	ChooseVar VarChooser
	// OrderValues orders branching values; default AscendingValues.
	OrderValues ValueOrderer
	// Deadline, when non-zero, aborts search afterwards; partial results
	// (solutions found so far) remain valid.
	Deadline time.Time
	// MaxSolutions stops enumeration after this many solutions
	// (0 = unlimited; Minimize ignores it).
	MaxSolutions int
	// StallNodes, when positive, makes Minimize stop after exploring
	// this many nodes without improving the incumbent — a deterministic
	// convergence criterion for anytime optimisation. Solve ignores it.
	StallNodes int64
	// MaxNodes, when positive, aborts search after exploring this many
	// branching nodes (counted across all workers) with Reason
	// StopNodeLimit — a deterministic budget that, unlike Deadline, does
	// not depend on machine speed.
	MaxNodes int64
	// Recorder, when non-nil, receives the structured search event
	// stream (branch, backtrack, solution, incumbent) and is installed
	// on the store for the duration of the search so propagation-level
	// events (propagate, prune) are captured too. Nil keeps the search
	// hot path free of any recording overhead.
	Recorder obs.Recorder
	// Workers sets the number of search goroutines. 0 or 1 searches on
	// the caller's store alone; above 1 the tree is split into
	// subproblems explored on cloned stores (see parallel.go for the
	// requirements and the determinism contract).
	Workers int
	// SplitDepth is the number of leading branching levels expanded
	// into independent subproblems when Workers > 1 (0 = 1). Deeper
	// splits yield more, finer-grained subproblems.
	SplitDepth int
}

// OptionError reports an invalid Options field value.
type OptionError struct {
	// Field is the Options field name.
	Field string
	// Value is the rejected value.
	Value int64
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("csp: invalid Options.%s: %d", e.Field, e.Value)
}

func (o Options) withDefaults() (Options, error) {
	switch {
	case o.MaxSolutions < 0:
		return o, &OptionError{Field: "MaxSolutions", Value: int64(o.MaxSolutions)}
	case o.StallNodes < 0:
		return o, &OptionError{Field: "StallNodes", Value: o.StallNodes}
	case o.MaxNodes < 0:
		return o, &OptionError{Field: "MaxNodes", Value: o.MaxNodes}
	case o.Workers < 0:
		return o, &OptionError{Field: "Workers", Value: int64(o.Workers)}
	case o.SplitDepth < 0:
		return o, &OptionError{Field: "SplitDepth", Value: int64(o.SplitDepth)}
	}
	if o.ChooseVar == nil {
		o.ChooseVar = SmallestDomain
	}
	if o.OrderValues == nil {
		o.OrderValues = AscendingValues
	}
	if o.SplitDepth == 0 {
		o.SplitDepth = 1
	}
	return o, nil
}

// StopReason says why a search run ended. The zero value (StopExhausted)
// is only reported by runs that actually ran to completion; aborted runs
// carry the specific cause, removing the silent-stop ambiguity between a
// proof, a stall and a timeout.
type StopReason uint8

// Stop reasons.
const (
	// StopExhausted: the search space was fully explored (for Minimize
	// this is the optimality proof).
	StopExhausted StopReason = iota
	// StopTimeout: Options.Deadline fired.
	StopTimeout
	// StopStalled: Options.StallNodes elapsed without an improvement.
	StopStalled
	// StopCut: enumeration was cut short by the solution callback or
	// Options.MaxSolutions.
	StopCut
	// StopNodeLimit: Options.MaxNodes was reached.
	StopNodeLimit
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopExhausted:
		return "exhausted"
	case StopTimeout:
		return "timeout"
	case StopStalled:
		return "stalled"
	case StopCut:
		return "cut"
	case StopNodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// SearchResult summarises a Solve run.
type SearchResult struct {
	// Solutions is the number of solutions delivered.
	Solutions int
	// Complete is true when the search space was exhausted (false when
	// the deadline fired or enumeration was cut short).
	Complete bool
	// Reason says why the run ended (exhausted, timeout or cut).
	Reason StopReason
	// Nodes counts branching nodes explored.
	Nodes int64
	// Backtracks counts dead ends: branch attempts whose propagation
	// failed.
	Backtracks int64
	// Propagations counts propagator executions during the run.
	Propagations int64
}

// ObjectivePoint is one improving step of a branch-and-bound run: the
// new incumbent objective, and when it was found in nodes and wall-clock
// time since the start of the run. The sequence of points reconstructs
// the solver's anytime behaviour (objective-vs-time curves).
type ObjectivePoint struct {
	Objective int
	Nodes     int64
	Elapsed   time.Duration
}

// MinimizeResult reports the outcome of a branch-and-bound run.
type MinimizeResult struct {
	// Found is true when at least one solution was seen.
	Found bool
	// Best is the objective value of the best solution.
	Best int
	// Optimal is true when the search proved Best optimal (search space
	// exhausted under the final bound).
	Optimal bool
	// Stalled is true when the run stopped via Options.StallNodes
	// (equivalent to Reason == StopStalled).
	Stalled bool
	// Reason says why the run ended: StopExhausted is a completed
	// optimality proof (or infeasibility proof), StopStalled the
	// StallNodes criterion, StopTimeout the deadline.
	Reason StopReason
	// Nodes counts branching nodes explored.
	Nodes int64
	// Backtracks counts dead ends: branch attempts whose propagation
	// failed.
	Backtracks int64
	// Propagations counts propagator executions during the run.
	Propagations int64
	// BestObjectiveTrace records every improving solution in order —
	// the incumbent-over-time series.
	BestObjectiveTrace []ObjectivePoint
}

// Solve runs depth-first search over vars, invoking onSolution with the
// store in an all-assigned, propagated state for every solution. If
// onSolution returns false, enumeration stops early. The store is left
// at its entry state.
//
// With Options.Workers > 1, onSolution is serialised but runs on worker
// goroutines with a worker's clone of st, in a scheduling-dependent
// order; which solutions a MaxSolutions cut delivers is likewise
// scheduling-dependent. The solution count of an exhaustive run is not.
func Solve(st *Store, vars []*Var, opts Options, onSolution func(*Store) bool) (SearchResult, error) {
	s, err := newSearch(opts, nil)
	if err != nil {
		return SearchResult{}, err
	}
	s.onSolution = onSolution
	err = s.run(st, vars)
	res := SearchResult{
		Solutions:    s.solutions,
		Reason:       StopReason(s.reason.Load()),
		Nodes:        s.nodes.Load(),
		Backtracks:   s.backtracks.Load(),
		Propagations: s.propagations,
	}
	res.Complete = err == nil && res.Reason == StopExhausted
	return res, err
}

// Minimize finds an assignment of vars minimising obj using depth-first
// branch-and-bound: after each improving solution the objective is
// bounded below the incumbent and search continues. onImproved (may be
// nil) is called with the store at each improving solution so the caller
// can snapshot the assignment. The store is restored on return.
//
// With Options.Workers > 1, onImproved is serialised but runs on worker
// goroutines with a worker's clone of st; its final call carries the
// run's reported solution (see parallel.go for which one that is).
func Minimize(st *Store, vars []*Var, obj *Var, opts Options, onImproved func(*Store, int)) (MinimizeResult, error) {
	s, err := newSearch(opts, obj)
	if err != nil {
		return MinimizeResult{}, err
	}
	s.onImproved = onImproved
	//solverlint:allow nondeterminism run-start timestamp only feeds ObjectivePoint.Elapsed (anytime trace), never a search decision
	s.start = time.Now()
	if !containsVar(vars, obj) {
		vars = append(append([]*Var{}, vars...), obj)
	}
	err = s.run(st, vars)
	res := MinimizeResult{
		Found:              s.found,
		Best:               s.best,
		Reason:             StopReason(s.reason.Load()),
		Nodes:              s.nodes.Load(),
		Backtracks:         s.backtracks.Load(),
		Propagations:       s.propagations,
		BestObjectiveTrace: s.trace,
	}
	res.Optimal = err == nil && res.Reason == StopExhausted
	res.Stalled = res.Reason == StopStalled
	return res, err
}

func containsVar(vars []*Var, v *Var) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// search is the state of one Solve or Minimize run, shared by all of its
// workers. Solve and Minimize differ only in the action taken at a leaf:
// Solve delivers the solution, Minimize offers it as an incumbent.
type search struct {
	opts       Options
	obj        *Var // the objective; nil for Solve
	start      time.Time
	onSolution func(*Store) bool
	onImproved func(*Store, int)

	next         atomic.Int64 // subproblem dispenser
	stopped      atomic.Bool
	reason       atomic.Int32 // first StopReason to fire; StopExhausted (0) while none has
	nodes        atomic.Int64
	backtracks   atomic.Int64
	inc          atomic.Pointer[incumbent]
	lastImproved atomic.Int64 // nodes at the last strict improvement
	propagations int64        // written by the calling goroutine only

	mu        sync.Mutex // guards the fields below and the callbacks
	solutions int
	found     bool
	best      int
	bestSub   int64
	trace     []ObjectivePoint
}

// incumbent is the atomically published (objective, subtree) pair the
// bound propagators cut with.
type incumbent struct {
	best int
	sub  int64
}

func newSearch(opts Options, obj *Var) (*search, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return &search{opts: opts, obj: obj}, nil
}

// run is the one search loop behind Solve and Minimize: it installs
// the recorder, propagates the root and explores the tree below it —
// as a single job on st when Workers ≤ 1, split over cloned workers
// otherwise. An infeasible root is an exhausted search.
func (s *search) run(st *Store, vars []*Var) error {
	propBase := st.nPropag
	if s.opts.Recorder != nil {
		prev := st.Recorder()
		st.SetRecorder(s.opts.Recorder)
		defer st.SetRecorder(prev)
	}
	var w *worker
	if s.opts.Workers <= 1 {
		w = s.newWorker(st, vars, s.opts.Recorder)
	}
	err := st.Propagate()
	switch {
	case err == ErrInconsistent:
		err = nil
	case err != nil:
		// Any other propagation error is the caller's to see.
	case w != nil:
		w.runJob(subproblem{})
	default:
		err = s.runParallel(st, vars)
	}
	s.propagations += st.nPropag - propBase
	return err
}

func deadlineHit(opts *Options) bool {
	//solverlint:allow nondeterminism Options.Deadline is a documented anytime stop; deadline runs are non-deterministic by contract
	return !opts.Deadline.IsZero() && time.Now().After(opts.Deadline)
}

// stop requests a global stop, recording r if it is the first cause.
func (s *search) stop(r StopReason) {
	s.reason.CompareAndSwap(0, int32(r))
	s.stopped.Store(true)
}

// interrupted reports whether the run has stopped, firing the deadline
// if it has passed.
func (s *search) interrupted() bool {
	if s.stopped.Load() {
		return true
	}
	if deadlineHit(&s.opts) {
		s.stop(StopTimeout)
		return true
	}
	return false
}

// checkStops polls every stop condition at a search node, firing the
// first that holds. It reports whether the worker must unwind.
func (s *search) checkStops() bool {
	if s.interrupted() {
		return true
	}
	n := s.nodes.Load()
	if s.opts.MaxNodes > 0 && n >= s.opts.MaxNodes {
		s.stop(StopNodeLimit)
		return true
	}
	if s.opts.StallNodes > 0 && s.inc.Load() != nil && n-s.lastImproved.Load() > s.opts.StallNodes {
		s.stop(StopStalled)
		return true
	}
	return false
}

// cutFor returns the largest objective value worth exploring in
// subtree sub: best−1 at or after the incumbent's subtree, best before
// it (a tie there still beats the incumbent).
func (s *search) cutFor(sub int64) int {
	p := s.inc.Load()
	switch {
	case p == nil:
		return math.MaxInt
	case sub >= p.sub:
		return p.best - 1
	}
	return p.best
}

// offer submits a solution with objective obj found in subtree sub.
// Acceptance is exact (under the mutex); the atomic incumbent pair is
// republished for the lock-free cuts.
func (s *search) offer(st *Store, obj int, sub int64, depth int, rec obs.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	improved := !s.found || obj < s.best
	if !improved && !(obj == s.best && sub < s.bestSub) {
		return
	}
	s.found = true
	s.best = obj
	s.bestSub = sub
	s.inc.Store(&incumbent{best: obj, sub: sub})
	if improved {
		n := s.nodes.Load()
		s.lastImproved.Store(n)
		s.trace = append(s.trace, ObjectivePoint{
			Objective: obj,
			Nodes:     n,
			//solverlint:allow nondeterminism Elapsed annotates the anytime trace for reporting; no search decision reads it
			Elapsed: time.Since(s.start),
		})
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindIncumbent, Objective: obj, Nodes: n, Depth: depth})
		}
	}
	// Ties re-snapshot too: the earlier-subtree solution becomes the
	// reported one.
	if s.onImproved != nil {
		s.onImproved(st, obj)
	}
}

// worker explores subproblems on one store: the caller's when the run
// has a single job, a clone of it otherwise.
type worker struct {
	s     *search
	st    *Store
	vars  []*Var       // the search variables on st
	obj   *Var         // the objective on st; nil for Solve
	rec   obs.Recorder // Options.Recorder, stamped with the worker id when Workers > 1
	bound int          // handle of the bnb.bound propagator; -1 for Solve
	sub   int64        // index of the subproblem being explored
}

// newWorker binds a worker to st. For Minimize it posts the incumbent
// cut on st, re-scheduled at every branch.
func (s *search) newWorker(st *Store, vars []*Var, rec obs.Recorder) *worker {
	w := &worker{s: s, st: st, vars: vars, rec: rec, bound: -1}
	if s.obj != nil {
		w.obj = st.vars[s.obj.id]
		boundProp := FuncProp(func(st *Store) error {
			return st.SetMax(w.obj, s.cutFor(w.sub))
		})
		w.bound = st.Post(WithName(boundProp, "bnb.bound"), w.obj)
	}
	return w
}

// runJob replays job's decisions on the worker's store and explores the
// subtree below them.
func (w *worker) runJob(job subproblem) {
	w.sub = int64(job.index)
	if len(job.path) == 0 {
		// Nothing to replay: the store is at its propagated root, and a
		// single-job run must cost exactly what the search below it does.
		w.dfs(0)
		return
	}
	st := w.st
	st.Push()
	if w.bound >= 0 {
		st.Schedule(w.bound)
	}
	var err error
	for _, d := range job.path {
		if err = st.Assign(st.vars[d.varID], d.val); err != nil {
			break
		}
	}
	if err == nil {
		err = st.Propagate()
	}
	if err == nil {
		w.dfs(len(job.path))
	} else {
		w.backtrack(len(job.path))
	}
	st.Pop()
}

// dfs is the search recursion: it explores the subtree below the
// store's current state and returns true when the run has stopped and
// the worker must unwind.
func (w *worker) dfs(depth int) bool {
	s, st := w.s, w.st
	if s.checkStops() {
		return true
	}
	v := s.opts.ChooseVar(w.vars)
	if v == nil {
		return w.leaf(depth)
	}
	s.nodes.Add(1)
	for _, val := range s.opts.OrderValues(v) {
		if s.interrupted() {
			return true
		}
		if w.rec != nil {
			w.rec.Record(obs.Event{Kind: obs.KindBranch, Var: v.name, Value: val, Depth: depth})
		}
		st.Push()
		if w.bound >= 0 {
			st.Schedule(w.bound) // the cut may have tightened since Push
		}
		err := st.Assign(v, val)
		if err == nil {
			err = st.Propagate()
		}
		if err != nil {
			w.backtrack(depth)
		} else if w.dfs(depth + 1) {
			st.Pop()
			return true
		}
		st.Pop()
	}
	return false
}

// leaf handles an all-assigned store: Minimize offers it as an
// incumbent, Solve delivers it. It reports whether the run has stopped.
func (w *worker) leaf(depth int) bool {
	s := w.s
	if w.obj != nil {
		s.offer(w.st, w.obj.Value(), w.sub, depth, w.rec)
		return false
	}
	if w.rec != nil {
		w.rec.Record(obs.Event{Kind: obs.KindSolution, Depth: depth})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return true
	}
	s.solutions++
	if (s.onSolution != nil && !s.onSolution(w.st)) ||
		(s.opts.MaxSolutions > 0 && s.solutions >= s.opts.MaxSolutions) {
		s.stop(StopCut)
		return true
	}
	return false
}

// backtrack counts a dead end at depth.
func (w *worker) backtrack(depth int) {
	w.s.backtracks.Add(1)
	if w.rec != nil {
		w.rec.Record(obs.Event{Kind: obs.KindBacktrack, Depth: depth})
	}
}
