package online

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// Resident describes one currently placed module for compaction
// planning.
type Resident struct {
	ID     TaskID
	Module *module.Module
	Shape  int
	At     grid.Point
}

// paint sets the resident's footprint on occ to v.
func (r Resident) paint(occ *grid.Bitmap, v bool) {
	occ.SetPointsAt(r.Module.Shape(r.Shape).Points(), r.At, v)
}

// Move relocates one resident module to a new shape/anchor. Moves of a
// compaction plan are ordered: each move's target is free given all
// earlier moves applied.
type Move struct {
	ID    TaskID
	Shape int
	At    grid.Point
}

// PlanCompaction computes a defragmentation plan for the residents: the
// CP placer derives a tighter target layout (design alternatives
// included), and the planner orders the relocations so that every move
// lands on tiles that are free at its turn — a module is never without a
// valid location. Modules whose placement is unchanged do not move.
//
// The returned moves achieve the target layout when applied in order; an
// error is returned if no ordering exists (relocation cycles) or the
// target layout cannot be computed. A nil move list with a nil error
// means the residency is already as tight as the placer can make it.
func PlanCompaction(region *fabric.Region, residents []Resident, opts core.Options) ([]Move, *core.Result, error) {
	moves, target, stuck, err := planCompaction(region, residents, opts)
	if err == nil && stuck > 0 {
		err = fmt.Errorf("online: compaction blocked by a relocation cycle (%d modules)", stuck)
	}
	return moves, target, err
}

// planCompaction is PlanCompaction reporting a relocation cycle as the
// number of modules left unordered (with no moves) instead of an error.
func planCompaction(region *fabric.Region, residents []Resident, opts core.Options) ([]Move, *core.Result, int, error) {
	if len(residents) == 0 {
		return nil, nil, 0, fmt.Errorf("online: no residents to compact")
	}
	seen := map[TaskID]bool{}
	mods := make([]*module.Module, len(residents))
	for i, r := range residents {
		if r.Module == nil {
			return nil, nil, 0, fmt.Errorf("online: resident %d has no module", r.ID)
		}
		if r.Shape < 0 || r.Shape >= r.Module.NumShapes() {
			return nil, nil, 0, fmt.Errorf("online: resident %d has invalid shape %d", r.ID, r.Shape)
		}
		if seen[r.ID] {
			return nil, nil, 0, fmt.Errorf("online: duplicate resident %d", r.ID)
		}
		seen[r.ID] = true
		mods[i] = r.Module
	}

	target, err := core.New(region, opts).Place(mods)
	if err != nil {
		return nil, nil, 0, err
	}
	if !target.Found {
		return nil, nil, 0, fmt.Errorf("online: compaction target infeasible")
	}

	// Current height; bail out early if the target is no better.
	curTop := 0
	for _, r := range residents {
		if t := r.At.Y + r.Module.Shape(r.Shape).H(); t > curTop {
			curTop = t
		}
	}
	if target.Height >= curTop {
		return nil, target, 0, nil
	}

	occ := grid.NewBitmap(region.W(), region.H())
	for _, r := range residents {
		r.paint(occ, true)
	}
	moves, stuck := orderMoves(occ, residents, target.Placements)
	if stuck > 0 {
		return nil, target, stuck, nil
	}
	return moves, target, 0, nil
}

// orderMoves is the one relocation planner behind replanning and
// compaction: it turns a CP target layout (target[i] is where
// residents[i] must end up; trailing entries, such as a replan's
// newcomer, are ignored) into a move schedule in which every move's
// target tiles are free when its turn comes. Residents already at their
// target stay put. It repeatedly picks, in resident order, any pending
// move whose target is unoccupied once the module's current tiles are
// vacated (a module leaves its old site atomically during
// reconfiguration), applies it, and emits it. occ must hold the
// occupancy of all residents and is advanced in place to the post-move
// state. The second result is the number of moves left unordered —
// non-zero means a relocation cycle that cannot be broken without a
// staging location, and occ then reflects only the ordered prefix.
func orderMoves(occ *grid.Bitmap, residents []Resident, target []core.Placement) ([]Move, int) {
	var todo []int
	for i, r := range residents {
		if p := target[i]; p.At != r.At || p.ShapeIndex != r.Shape {
			todo = append(todo, i)
		}
	}
	var moves []Move
	for len(todo) > 0 {
		progressed := false
		for j := 0; j < len(todo); j++ {
			r, p := residents[todo[j]], target[todo[j]]
			pts := p.Shape().Points()
			r.paint(occ, false)
			if occ.AnyAt(pts, p.At) {
				r.paint(occ, true)
				continue
			}
			occ.SetPointsAt(pts, p.At, true)
			moves = append(moves, Move{ID: r.ID, Shape: p.ShapeIndex, At: p.At})
			todo = append(todo[:j], todo[j+1:]...)
			progressed = true
			j--
		}
		if !progressed {
			return moves, len(todo)
		}
	}
	return moves, 0
}

// ApplyMoves replays a move plan over a residency snapshot, validating
// each step (resource match, bounds, no overlap at the time of the
// move). It returns the final residency. It is the one validated commit
// path for relocations: the engine adopts a replan's or a compaction's
// schedule only after it passes here.
func ApplyMoves(region *fabric.Region, residents []Resident, moves []Move) ([]Resident, error) {
	byID := make(map[TaskID]int, len(residents))
	occ := grid.NewBitmap(region.W(), region.H())
	out := make([]Resident, len(residents))
	copy(out, residents)
	for i, r := range out {
		byID[r.ID] = i
		r.paint(occ, true)
	}
	for _, m := range moves {
		i, ok := byID[m.ID]
		if !ok {
			return nil, fmt.Errorf("online: move for unknown resident %d", m.ID)
		}
		r := out[i]
		r.paint(occ, false)
		next := Resident{ID: r.ID, Module: r.Module, Shape: m.Shape, At: m.At}
		pts, err := ValidatePlacement(region, occ, next.Module, Placement{Shape: m.Shape, At: m.At})
		if err != nil {
			return nil, fmt.Errorf("online: move of %d invalid: %w", m.ID, err)
		}
		occ.SetPoints(pts, true)
		out[i] = next
	}
	return out, nil
}
