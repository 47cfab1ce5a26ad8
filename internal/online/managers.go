package online

import (
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// Space is the one occupancy of an online run or session: the region,
// its occupancy bitmap, the resident table, and per-shape anchor caches
// (the fused M_a ∧ M_b constraint, cached by shape fingerprint since
// tasks reuse module layouts). The engine (State) owns and changes it;
// managers only read it.
type Space struct {
	region    *fabric.Region
	occ       *grid.Bitmap
	anchors   map[string]*grid.Bitmap
	residents map[TaskID]Resident
}

func newSpace(region *fabric.Region) Space {
	return Space{
		region:    region,
		occ:       grid.NewBitmap(region.W(), region.H()),
		anchors:   map[string]*grid.Bitmap{},
		residents: map[TaskID]Resident{},
	}
}

func (sp *Space) anchorsFor(s *module.Shape) *grid.Bitmap {
	if a, ok := sp.anchors[s.Key()]; ok {
		return a
	}
	a := core.ValidAnchors(sp.region, s)
	sp.anchors[s.Key()] = a
	return a
}

// freeAt reports whether shape s can go at (x, y): anchor valid and all
// tiles unoccupied.
func (sp *Space) freeAt(s *module.Shape, x, y int) bool {
	if !sp.anchorsFor(s).Get(x, y) {
		return false
	}
	return !sp.occ.AnyAt(s.Points(), grid.Pt(x, y))
}

// add paints r onto the occupancy and records it as resident.
func (sp *Space) add(r Resident) {
	r.paint(sp.occ, true)
	sp.residents[r.ID] = r
}

// shapeRange returns the shape indices a manager may use.
func shapeRange(m *module.Module, useAlternatives bool) int {
	if useAlternatives {
		return m.NumShapes()
	}
	return 1
}

// FirstFit is free-space management with bottom-left first-fit: the
// classic online policy (the "free space management" pole of the
// paper's classification).
type FirstFit struct {
	// UseAlternatives lets the manager pick among design alternatives.
	UseAlternatives bool
}

// Name implements Manager.
func (m *FirstFit) Name() string {
	if m.UseAlternatives {
		return "first-fit+alternatives"
	}
	return "first-fit"
}

// TryPlace implements Manager.
func (m *FirstFit) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	n := shapeRange(mod, m.UseAlternatives)
	for y := 0; y < sp.region.H(); y++ {
		for x := 0; x < sp.region.W(); x++ {
			for si := 0; si < n; si++ {
				if sp.freeAt(mod.Shape(si), x, y) {
					return Placement{Shape: si, At: grid.Pt(x, y)}, true
				}
			}
		}
	}
	return Placement{}, false
}

// BestFitMER is free-space management with maximal-empty-rectangle
// best-fit, after Bazargan et al. [4]: the free space is decomposed into
// maximal empty rectangles and the module goes into the rectangle whose
// area exceeds the module's bounding box by the least.
type BestFitMER struct {
	UseAlternatives bool
}

// Name implements Manager.
func (m *BestFitMER) Name() string {
	if m.UseAlternatives {
		return "mer-best-fit+alternatives"
	}
	return "mer-best-fit"
}

// TryPlace implements Manager.
func (m *BestFitMER) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	mers := MaximalEmptyRects(sp.region, sp.occ)
	n := shapeRange(mod, m.UseAlternatives)
	bestWaste := 1 << 60
	var best Placement
	found := false
	for _, r := range mers {
		for si := 0; si < n; si++ {
			s := mod.Shape(si)
			if s.W() > r.W() || s.H() > r.H() {
				continue
			}
			waste := r.Area() - s.W()*s.H()
			if found && waste >= bestWaste {
				continue
			}
			// Heterogeneity: the rectangle is geometrically free but the
			// shape's resource pattern may only align at some anchors
			// inside it — scan bottom-left within the rectangle.
			if x, y, ok := anchorInRect(sp, s, r); ok {
				bestWaste = waste
				best = Placement{Shape: si, At: grid.Pt(x, y)}
				found = true
			}
		}
	}
	return best, found
}

func anchorInRect(sp *Space, s *module.Shape, r grid.Rect) (int, int, bool) {
	va := sp.anchorsFor(s)
	for y := r.MinY; y+s.H() <= r.MaxY; y++ {
		for x := r.MinX; x+s.W() <= r.MaxX; x++ {
			// Tiles inside a maximal empty rect are unoccupied by
			// construction; only anchor validity needs checking.
			if va.Get(x, y) {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}

// OccupiedSpace is occupied-space management after Ahmadinia et al. [5]:
// candidate positions are derived from the boundaries of the already
// placed modules (and the region border) instead of scanning all free
// space; the bottom-left-most adjacent position wins. This both shrinks
// the candidate set and packs modules against each other.
type OccupiedSpace struct {
	UseAlternatives bool
}

// Name implements Manager.
func (m *OccupiedSpace) Name() string {
	if m.UseAlternatives {
		return "occupied-space+alternatives"
	}
	return "occupied-space"
}

// TryPlace implements Manager.
func (m *OccupiedSpace) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	n := shapeRange(mod, m.UseAlternatives)
	for y := 0; y < sp.region.H(); y++ {
		for x := 0; x < sp.region.W(); x++ {
			for si := 0; si < n; si++ {
				s := mod.Shape(si)
				if sp.freeAt(s, x, y) && touches(sp, s, x, y) {
					return Placement{Shape: si, At: grid.Pt(x, y)}, true
				}
			}
		}
	}
	return Placement{}, false
}

// touches reports whether the shape at (x, y) abuts the region border or
// an occupied tile — the "managed" positions of occupied-space policies.
func touches(sp *Space, s *module.Shape, x, y int) bool {
	for _, p := range s.Points() {
		ax, ay := p.X+x, p.Y+y
		if ax == 0 || ay == 0 || ax == sp.region.W()-1 || ay == sp.region.H()-1 {
			return true
		}
		if sp.occ.Get(ax-1, ay) || sp.occ.Get(ax+1, ay) ||
			sp.occ.Get(ax, ay-1) || sp.occ.Get(ax, ay+1) {
			return true
		}
	}
	return false
}

// Slot1D is 1D slot-style placement: the region is pre-partitioned into
// fixed-width, full-height slots and every module exclusively reserves a
// contiguous run of slots — the coarse model of early reconfigurable
// systems the paper's classification contrasts with 2D placement. The
// reserved-but-unused area is internal fragmentation. A resident
// reserves every slot its bounding box touches.
type Slot1D struct {
	// SlotWidth is the width of one slot in tiles (default 8).
	SlotWidth       int
	UseAlternatives bool
}

// Name implements Manager.
func (m *Slot1D) Name() string { return "1d-slots" }

// TryPlace implements Manager.
func (m *Slot1D) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	width := m.SlotWidth
	if width <= 0 {
		width = 8
	}
	busy := make([]bool, sp.region.W()/width)
	//solverlint:allow nondeterminism marking reserved slots is order-independent
	for _, r := range sp.residents {
		last := (r.At.X + r.Module.Shape(r.Shape).W() - 1) / width
		for i := r.At.X / width; i <= last && i < len(busy); i++ {
			busy[i] = true
		}
	}
	n := shapeRange(mod, m.UseAlternatives)
	for si := 0; si < n; si++ {
		s := mod.Shape(si)
		need := (s.W() + width - 1) / width
		for first := 0; first+need <= len(busy); first++ {
			if slices.Contains(busy[first:first+need], true) {
				continue
			}
			// The module may sit anywhere inside its reserved slots; the
			// fabric's resource pattern decides which anchors work.
			lo := first * width
			hi := (first+need)*width - s.W()
			for y := 0; y+s.H() <= sp.region.H(); y++ {
				for x := lo; x <= hi; x++ {
					if sp.freeAt(s, x, y) {
						return Placement{Shape: si, At: grid.Pt(x, y)}, true
					}
				}
			}
		}
	}
	return Placement{}, false
}

// Managers returns one instance of every policy, with and without design
// alternatives where the policy supports them.
func Managers() []Manager {
	return []Manager{
		&FirstFit{},
		&FirstFit{UseAlternatives: true},
		&BestFitMER{},
		&BestFitMER{UseAlternatives: true},
		&OccupiedSpace{},
		&OccupiedSpace{UseAlternatives: true},
		&Slot1D{},
	}
}
