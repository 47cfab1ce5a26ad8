package online

import (
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// replanLayout is the engine's admission replan: a first-solution CP
// layout of the residents (in the given order) plus the newcomer mod,
// and the resident relocations ordered so every intermediate state is
// valid. It returns the moves and the newcomer's placement — the
// newcomer configures last, onto cells free once all moves are applied
// — and ok=false when no layout or no safe move order exists. occ is
// not modified.
func replanLayout(region *fabric.Region, occ *grid.Bitmap, res []Resident, mod *module.Module, budget core.Options) ([]Move, core.Placement, bool) {
	mods := make([]*module.Module, 0, len(res)+1)
	for _, r := range res {
		mods = append(mods, r.Module)
	}
	mods = append(mods, mod)
	budget.FirstSolutionOnly = true
	target, err := core.New(region, budget).Place(mods)
	if err != nil || !target.Found {
		return nil, core.Placement{}, false
	}
	moves, stuck := orderMoves(occ.Clone(), res, target.Placements)
	if stuck > 0 {
		return nil, core.Placement{}, false // relocation cycle: give up
	}
	return moves, target.Placements[len(res)], true
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
