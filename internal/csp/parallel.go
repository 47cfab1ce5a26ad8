package csp

import (
	"sync"

	"repro/internal/obs"
)

// This file implements the Workers > 1 side of Solve and Minimize. The
// search tree is split at its root branching level into an ordered
// list of independent subproblems, one per value; Options.Workers
// goroutines, each owning one Store.Clone, pull subproblems from a
// shared index dispenser and explore them with the same recursion a
// single-job run uses. The only mutable state shared between workers
// is the incumbent (published through an atomic pointer, read into
// every worker's bound cut) and the global node/stop counters.
//
// Requirements beyond a single-job run: every propagator on the store
// must implement Clonable (otherwise a *CloneError is returned), and
// the ChooseVar/OrderValues heuristics are called concurrently from all
// workers on different stores, so they must be pure functions of the
// variables handed to them. Heuristics that capture *Var pointers from
// one particular store are not safe here.
//
// Determinism: a Minimize run that exhausts the search space returns
// the same objective for every worker count, and its final onImproved
// call carries the same assignment on every run and for every worker
// count. The incumbent is accepted under a mutex with the rule
//
//	accept ⇔ obj < best  ∨  (obj = best ∧ subtree < bestSubtree)
//
// i.e. ties are broken by the subproblem's position in the sequential
// visit order, never by arrival time. The lock-free cut each worker
// prunes with is derived from an atomically published (best, subtree)
// pair: obj ≤ best−1 for subtrees at or after the incumbent's, obj ≤
// best for earlier subtrees (which may still tie and win). A stale pair
// is always an older, weaker incumbent, so a torn read can only make
// the cut looser — never prune an optimum of an earlier subtree. The
// final incumbent therefore lies in the earliest subtree that holds an
// optimum. Which assignment a worker meets inside that subtree still
// depends on timing: the cut it sees depends on when later subtrees'
// incumbents arrive, and that steers dynamic heuristics such as
// SmallestDomain. So once the workers are done, the run replays that
// subtree on the root store with obj ≤ best and reports the first
// solution it meets through onImproved. That assignment depends only on
// the model and the heuristics. When ChooseVar and the per-variable
// value order are static it is also the assignment a Workers ≤ 1 run
// reports: both are the first optimal solution in depth-first order.
//
// Solve runs with Workers > 1 deliver solutions in a scheduling-
// dependent order. Runs cut short by Deadline or StallNodes depend on
// worker interleaving and are not deterministic (same as any anytime
// stop).

// workerRecorder stamps every event with the worker's 1-based id before
// forwarding, so merged traces from parallel runs stay attributable.
type workerRecorder struct {
	inner  obs.Recorder
	worker int
}

// Record implements obs.Recorder.
func (w workerRecorder) Record(e obs.Event) {
	e.Worker = w.worker
	w.inner.Record(e)
}

// decision is one committed branching step, store-independent: the
// variable is addressed by id so the step replays on any clone.
type decision struct {
	varID int
	val   int
}

// subproblem is one leaf of the split: the decisions leading to it, in
// sequential visit order (index 0 is the subtree sequential DFS would
// explore first).
type subproblem struct {
	index int
	path  []decision
}

// split expands the root branching level of the search into
// subproblems, one per value of the root branching variable, in
// sequential DFS order. The values are not propagated here; the worker
// propagates on replay.
func (s *search) split(vars []*Var) []subproblem {
	v := s.opts.ChooseVar(vars)
	if v == nil {
		// All variables assigned at the root: the root itself is the
		// single leaf.
		return []subproblem{{}}
	}
	vals := s.opts.OrderValues(v)
	jobs := make([]subproblem, len(vals))
	for i, val := range vals {
		jobs[i] = subproblem{index: i, path: []decision{{varID: v.id, val: val}}}
	}
	return jobs
}

// runParallel splits the propagated root st into subproblems and
// explores them on Workers cloned stores. vars are the search
// variables on st.
func (s *search) runParallel(st *Store, vars []*Var) error {
	jobs := s.split(vars)
	workers := make([]*worker, min(s.opts.Workers, len(jobs)))
	for i := range workers {
		cl, err := st.Clone()
		if err != nil {
			return err
		}
		var rec obs.Recorder
		if s.opts.Recorder != nil {
			rec = workerRecorder{inner: s.opts.Recorder, worker: i + 1}
			cl.SetRecorder(rec)
		}
		cvars := make([]*Var, len(vars))
		for j, v := range vars {
			cvars[j] = cl.vars[v.id]
		}
		workers[i] = s.newWorker(cl, cvars, rec)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(jobs)
		}(w)
	}
	wg.Wait()
	for _, w := range workers {
		s.propagations += w.st.nPropag
	}
	if s.found && s.onImproved != nil && s.reason.Load() == 0 {
		s.replay(st, vars, jobs[s.bestSub])
	}
	return nil
}

// loop pulls subproblems in order until the dispenser runs dry or the
// run stops.
func (w *worker) loop(jobs []subproblem) {
	for !w.s.stopped.Load() {
		i := w.s.next.Add(1) - 1
		if i >= int64(len(jobs)) {
			return
		}
		w.runJob(jobs[i])
	}
}

// replay re-explores job, the earliest subtree holding the optimum, on
// the root store st with the objective clipped at the optimum, and
// reports the first solution it meets through onImproved (see the
// determinism contract above). Its work is counted with the run's;
// only a deadline stops it.
func (s *search) replay(st *Store, vars []*Var, job subproblem) {
	r := &search{opts: s.opts, onSolution: func(st *Store) bool {
		s.onImproved(st, s.best)
		return false
	}}
	r.opts.StallNodes = 0
	st.Push()
	if st.SetMax(s.obj, s.best) == nil {
		r.newWorker(st, vars, s.opts.Recorder).runJob(job)
	}
	st.Pop()
	s.nodes.Add(r.nodes.Load())
	s.backtracks.Add(r.backtracks.Load())
}
