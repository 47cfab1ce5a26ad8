package online

import (
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/obs"
)

// MoveReporter is an optional Manager extension: a manager that
// relocates already-resident modules (defragmentation) exposes the
// relocation moves of its last TryPlace here. The simulator drains the
// moves after every TryPlace, validates each step, and charges the
// configuration port for them — relocation is not free.
type MoveReporter interface {
	PendingMoves() []Move
}

// ReplanFirstFit is first-fit with CP-driven defragmentation: when
// greedy first-fit cannot place an arrival, the constraint-programming
// placer computes a fresh layout for all residents plus the newcomer,
// the relocations are ordered so every intermediate state is valid, and
// the arrival is admitted into the compacted layout. This brings the
// offline placer's strength — including design alternatives — to the
// online setting, at the price of relocation reconfigurations.
type ReplanFirstFit struct {
	FirstFit
	// Budget configures each replan solve (FirstSolutionOnly is forced).
	Budget core.Options
	// Metrics, when non-nil, counts replan attempts and successes
	// (online_replans_total, online_replans_success_total) and times each
	// replan solve (online_replan_seconds). Nil-safe.
	Metrics *obs.Registry

	pending []Move
}

// Name implements Manager.
func (m *ReplanFirstFit) Name() string { return "first-fit+cp-replan" }

// PendingMoves implements MoveReporter.
func (m *ReplanFirstFit) PendingMoves() []Move {
	out := m.pending
	m.pending = nil
	return out
}

// TryPlace implements Manager.
func (m *ReplanFirstFit) TryPlace(t Task) (Placement, bool) {
	if p, ok := m.FirstFit.TryPlace(t); ok {
		return p, ok
	}
	return m.replan(t)
}

// replan computes a joint layout of residents + newcomer and derives an
// ordered relocation plan.
func (m *ReplanFirstFit) replan(t Task) (Placement, bool) {
	m.Metrics.Counter("online_replans_total").Inc()
	defer m.Metrics.Timer("online_replan").Stop()
	occ, moves, newcomer, ok := replanLayout(m.region, m.occ, sortedResidents(m.resident), t.Module, m.Budget)
	if !ok {
		return Placement{}, false
	}
	// Commit the plan to the manager's own state.
	m.occ = occ
	moveResidents(m.resident, moves)
	m.pending = moves
	m.commit(t.ID, t.Module, newcomer.ShapeIndex, newcomer.At.X, newcomer.At.Y)
	m.Metrics.Counter("online_replans_success_total").Inc()
	return Placement{Shape: newcomer.ShapeIndex, At: newcomer.At}, true
}

// replanLayout is the admission replan shared by ReplanFirstFit and the
// session engine: a first-solution CP layout of the residents (in the
// given order) plus the newcomer mod, and the resident relocations
// ordered so every intermediate state is valid. It returns a copy of occ
// advanced past the moves — the newcomer configures last, onto cells
// free once all moves are applied — and ok=false when no layout or no
// safe move order exists.
func replanLayout(region *fabric.Region, occ *grid.Bitmap, res []Resident, mod *module.Module, budget core.Options) (*grid.Bitmap, []Move, core.Placement, bool) {
	mods := make([]*module.Module, 0, len(res)+1)
	for _, r := range res {
		mods = append(mods, r.Module)
	}
	mods = append(mods, mod)
	budget.FirstSolutionOnly = true
	target, err := core.New(region, budget).Place(mods)
	if err != nil || !target.Found {
		return nil, nil, core.Placement{}, false
	}
	occ = occ.Clone()
	moves, stuck := orderMoves(occ, res, target.Placements)
	if stuck > 0 {
		return nil, nil, core.Placement{}, false // relocation cycle: give up
	}
	return occ, moves, target.Placements[len(res)], true
}

// moveResidents applies an ordered move schedule to a resident table.
func moveResidents(residents map[TaskID]Resident, moves []Move) {
	for _, mv := range moves {
		r := residents[mv.ID]
		r.Shape, r.At = mv.Shape, mv.At
		residents[mv.ID] = r
	}
}

// sortedResidents returns a resident table in ascending id order, the
// deterministic order every replan and compaction solves in.
func sortedResidents(residents map[TaskID]Resident) []Resident {
	out := make([]Resident, 0, len(residents))
	//solverlint:allow nondeterminism the slice is sorted by id immediately below
	for _, r := range residents {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
