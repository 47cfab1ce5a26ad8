package online

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/module"
	"repro/internal/obs"
)

// StateConfig configures a session State.
type StateConfig struct {
	// Manager selects the greedy policy: "first-fit" or "mer-best-fit".
	// Empty means first-fit; "occupied-space" and "adjacency" are
	// aliases of first-fit.
	Manager string
	// UseAlternatives lets the greedy policy pick among a module's
	// design alternatives.
	UseAlternatives bool
	// Replan budgets the CP solves behind replanning and
	// defragmentation. Admission replans force FirstSolutionOnly (a
	// blocked arrival needs any feasible layout, fast); defragmentation
	// uses the options as given, so a Timeout or StallNodes here bounds
	// how long a defrag may optimise.
	Replan core.Options
	// Frames prices reconfigurations; the zero value is replaced by
	// fabric.DefaultFrameModel().
	Frames fabric.FrameModel
}

// SessionManagers lists the manager names NewState accepts, canonical
// form first; "occupied-space" and "adjacency" are aliases of
// first-fit.
func SessionManagers() []string {
	return []string{"first-fit", "mer-best-fit", "occupied-space", "adjacency"}
}

// State is the online engine and the one owner of occupancy: a
// long-lived placement session in which modules arrive (Place), depart
// (Release) and get compacted (Defrag), and the event loop Simulate
// drives over a task stream. Its Space holds the only occupancy bitmap
// and resident table; the manager only reads it to choose a site. Every
// manager decision is audited through ValidatePlacement and every
// relocation through ApplyMoves before it is committed, so a buggy
// policy surfaces as an error, never as silent overlap.
//
// State is not safe for concurrent use; callers (the placement
// service's session store) serialise access per session.
type State struct {
	sp     *Space
	mgr    Manager
	fm     fabric.FrameModel
	replan core.Options
	// reg, when non-nil, counts and times CP replans (Simulate's
	// instrumentation).
	reg *obs.Registry

	placed   int
	rejected int
	replans  int
	defrags  int
	moves    int
	reconfig time.Duration
}

// NewState opens a session on region with the configured manager.
func NewState(region *fabric.Region, cfg StateConfig) (*State, error) {
	if region == nil {
		return nil, fmt.Errorf("online: session needs a region")
	}
	var mgr Manager
	switch cfg.Manager {
	case "", "first-fit", "occupied-space", "adjacency":
		mgr = &FirstFit{UseAlternatives: cfg.UseAlternatives}
	case "mer-best-fit":
		mgr = &BestFitMER{UseAlternatives: cfg.UseAlternatives}
	default:
		return nil, fmt.Errorf("online: unknown session manager %q (have %v)", cfg.Manager, SessionManagers())
	}
	fm := cfg.Frames
	if fm.FramesPerColumn == nil {
		fm = fabric.DefaultFrameModel()
	}
	return newState(region, mgr, fm, cfg.Replan)
}

func newState(region *fabric.Region, mgr Manager, fm fabric.FrameModel, replan core.Options) (*State, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	return &State{sp: NewSpace(region), mgr: mgr, fm: fm, replan: replan}, nil
}

// ManagerName returns the session's greedy policy name.
func (s *State) ManagerName() string { return s.mgr.Name() }

// PlaceOutcome reports one admission attempt.
type PlaceOutcome struct {
	// Placed reports whether the module is now resident. False with a
	// nil error is a capacity rejection, not a fault.
	Placed bool
	// Placement is the chosen alternative and anchor when Placed.
	Placement Placement
	// Replanned reports that greedy placement failed and a CP replan
	// admitted the module by relocating residents.
	Replanned bool
	// Moves lists the relocations the replan performed, in apply order.
	Moves []MoveCost
	// Reconfig is the configuration-port time charged for this
	// admission: the newcomer's bitstream plus every relocation.
	Reconfig time.Duration
}

// Place admits one module under id. Greedy placement is tried first;
// when the manager finds no site, the CP placer replans the whole
// residency (design alternatives included) and the arrival is admitted
// into the relocated layout. An error means bad input or an internal
// invariant violation; a full region is (Placed=false, nil).
func (s *State) Place(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	out, done, err := s.placeGreedy(id, mod)
	if err != nil || done {
		return out, err
	}
	return s.replanPlace(id, mod)
}

// PlaceGreedy is Place without the CP replan fallback: the degraded
// path the placement service uses when its solver capacity is
// saturated — a greedy decision costs microseconds, never a solve.
func (s *State) PlaceGreedy(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	out, done, err := s.placeGreedy(id, mod)
	if err != nil || done {
		return out, err
	}
	s.rejected++
	return PlaceOutcome{}, nil
}

func (s *State) placeGreedy(id TaskID, mod *module.Module) (PlaceOutcome, bool, error) {
	if mod == nil {
		return PlaceOutcome{}, false, fmt.Errorf("online: task %d has no module", id)
	}
	if _, ok := s.sp.residents[id]; ok {
		return PlaceOutcome{}, false, fmt.Errorf("online: task %d already resident", id)
	}
	p, ok := s.mgr.TryPlace(s.sp, mod)
	if !ok {
		return PlaceOutcome{}, false, nil
	}
	if _, err := ValidatePlacement(s.sp.region, s.sp.occ, mod, p); err != nil {
		return PlaceOutcome{}, false, fmt.Errorf("online: manager %s task %d: %w", s.mgr.Name(), id, err)
	}
	s.sp.Add(Resident{ID: id, Module: mod, Shape: p.Shape, At: p.At})
	s.placed++
	cost := s.cost(mod.Shape(p.Shape), p.At)
	s.reconfig += cost
	return PlaceOutcome{Placed: true, Placement: p, Reconfig: cost}, true, nil
}

// replanPlace is the fallback: a joint CP layout of residents plus the
// newcomer, with the relocations ordered so every intermediate state is
// valid and committed through ApplyMoves before the newcomer lands.
func (s *State) replanPlace(id TaskID, mod *module.Module) (PlaceOutcome, error) {
	s.replans++
	s.reg.Counter("online_replans_total").Inc()
	defer s.reg.Timer("online_replan").Stop()
	moves, newcomer, ok := replanLayout(s.sp.region, s.sp.occ, s.Residents(), mod, s.replan)
	if !ok {
		// No layout, or a feasible layout with no safe move order: treat
		// as a rejection rather than risk an invalid intermediate state.
		s.rejected++
		return PlaceOutcome{}, nil
	}
	out := PlaceOutcome{Placed: true, Placement: Placement{Shape: newcomer.ShapeIndex, At: newcomer.At}, Replanned: true}
	var err error
	if out.Moves, err = s.commitMoves(moves); err != nil {
		return PlaceOutcome{}, fmt.Errorf("online: replan plan failed validation: %w", err)
	}
	if _, err := ValidatePlacement(s.sp.region, s.sp.occ, mod, out.Placement); err != nil {
		return PlaceOutcome{}, fmt.Errorf("online: replan produced invalid newcomer placement: %w", err)
	}
	s.sp.Add(Resident{ID: id, Module: mod, Shape: out.Placement.Shape, At: out.Placement.At})
	for _, mv := range out.Moves {
		out.Reconfig += mv.Reconfig
	}
	out.Reconfig += s.cost(mod.Shape(out.Placement.Shape), out.Placement.At)
	s.placed++
	s.reconfig += out.Reconfig
	s.reg.Counter("online_replans_success_total").Inc()
	return out, nil
}

// Release frees a resident module; releasing an unknown id is a no-op
// (the operation is idempotent so clients may retry it blindly).
func (s *State) Release(id TaskID) bool { return s.sp.Remove(id) }

// MoveCost is one relocation of a defragmentation or replan schedule,
// priced by the frame model.
type MoveCost struct {
	Move
	// Frames is the number of configuration frames the move rewrites.
	Frames int
	// Reconfig is the configuration-port time for those frames.
	Reconfig time.Duration
}

// DefragOutcome reports one compaction pass.
type DefragOutcome struct {
	// Moves is the ordered relocation schedule; empty when the layout
	// was already as tight as the placer could make it.
	Moves []MoveCost
	// Reconfig is the total configuration-port time of the schedule.
	Reconfig time.Duration
	// FragBefore and FragAfter are the free-space fragmentation metric
	// around the pass.
	FragBefore float64
	FragAfter  float64
	// Blocked counts the modules left unordered when the compacted
	// layout has no safe move order (a relocation cycle); the pass then
	// moves nothing and the session is unchanged.
	Blocked int
}

// Defrag compacts the residency: the CP placer derives a tighter target
// layout, PlanCompaction's ordering pass sequences the relocations, and
// the session adopts the result. With no residents, no improvement, or
// a relocation cycle (Blocked > 0) the outcome has no moves and a nil
// error. The replan budget's Timeout/StallNodes bound the solve;
// FirstSolutionOnly is NOT forced here because compaction exists to
// improve the layout, not merely to find one.
func (s *State) Defrag() (DefragOutcome, error) {
	frag := metrics.Fragmentation(s.sp.region, s.sp.occ)
	out := DefragOutcome{FragBefore: frag, FragAfter: frag}
	if len(s.sp.residents) == 0 {
		return out, nil
	}
	s.defrags++
	moves, _, blocked, err := planCompaction(s.sp.region, s.Residents(), s.replan)
	if err != nil {
		return DefragOutcome{}, err
	}
	out.Blocked = blocked
	if len(moves) == 0 {
		return out, nil
	}
	if out.Moves, err = s.commitMoves(moves); err != nil {
		return DefragOutcome{}, fmt.Errorf("online: defrag plan failed validation: %w", err)
	}
	for _, mv := range out.Moves {
		out.Reconfig += mv.Reconfig
	}
	out.FragAfter = metrics.Fragmentation(s.sp.region, s.sp.occ)
	s.reconfig += out.Reconfig
	return out, nil
}

// commitMoves replays a relocation schedule through ApplyMoves, which
// validates every step against the current residency, and only then
// adopts the result into the Space. It returns the schedule priced by
// the frame model.
func (s *State) commitMoves(moves []Move) ([]MoveCost, error) {
	after, err := ApplyMoves(s.sp.region, s.Residents(), moves)
	if err != nil {
		return nil, err
	}
	s.sp.occ.Clear()
	for _, r := range after {
		s.sp.Add(r)
	}
	s.moves += len(moves)
	priced := make([]MoveCost, 0, len(moves))
	for _, mv := range moves {
		frames := s.frames(s.sp.residents[mv.ID].Module.Shape(mv.Shape), mv.At)
		priced = append(priced, MoveCost{Move: mv, Frames: frames, Reconfig: s.fm.ReconfigTime(frames)})
	}
	return priced, nil
}

// StateStats is a point-in-time summary of the session.
type StateStats struct {
	Residents     int
	OccupiedTiles int
	// Utilization is occupied placeable tiles over all placeable tiles.
	Utilization float64
	// Fragmentation is the free-space fragmentation metric in the
	// occupied span (0 = one solid free block, →1 = badly scattered).
	Fragmentation float64
	Placed        int
	Rejected      int
	Replans       int
	Defrags       int
	Moves         int
	TotalReconfig time.Duration
}

// Stats summarises the session.
func (s *State) Stats() StateStats {
	return StateStats{
		Residents:     len(s.sp.residents),
		OccupiedTiles: s.sp.occ.Count(),
		Utilization:   metrics.OverallUtilization(s.sp.region, s.sp.occ),
		Fragmentation: metrics.Fragmentation(s.sp.region, s.sp.occ),
		Placed:        s.placed,
		Rejected:      s.rejected,
		Replans:       s.replans,
		Defrags:       s.defrags,
		Moves:         s.moves,
		TotalReconfig: s.reconfig,
	}
}

// Residents returns the current residency in ascending id order.
func (s *State) Residents() []Resident { return sortedResidents(s.sp.residents) }

// Resident looks up one resident by id.
func (s *State) Resident(id TaskID) (Resident, bool) {
	r, ok := s.sp.residents[id]
	return r, ok
}

// frames counts the configuration frames of shape at anchor.
func (s *State) frames(shape *module.Shape, at grid.Point) int {
	return s.fm.FrameCount(s.sp.region, grid.RectXYWH(at.X, at.Y, shape.W(), shape.H()))
}

// cost prices one configuration of shape at anchor.
func (s *State) cost(shape *module.Shape, at grid.Point) time.Duration {
	return s.fm.ReconfigTime(s.frames(shape, at))
}
