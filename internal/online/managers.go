package online

import (
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
)

// Space is one occupancy of a region: its occupancy bitmap, the
// resident table, and per-shape anchor caches (the fused M_a ∧ M_b
// constraint, cached by shape fingerprint since tasks reuse module
// layouts). An online run or session's Space is owned and changed by
// its State, and managers only read it; the baseline packers build
// their own.
type Space struct {
	region    *fabric.Region
	occ       *grid.Bitmap
	anchors   map[string]*grid.Bitmap
	residents map[TaskID]Resident
}

// NewSpace returns an empty occupancy of region.
func NewSpace(region *fabric.Region) *Space {
	return &Space{
		region:    region,
		occ:       grid.NewBitmap(region.W(), region.H()),
		anchors:   map[string]*grid.Bitmap{},
		residents: map[TaskID]Resident{},
	}
}

// Bounds returns the region's anchor rectangle [0,W)×[0,H).
func (sp *Space) Bounds() grid.Rect { return sp.occ.Bounds() }

func (sp *Space) anchorsFor(s *module.Shape) *grid.Bitmap {
	if a, ok := sp.anchors[s.Key()]; ok {
		return a
	}
	a := core.ValidAnchors(sp.region, s)
	sp.anchors[s.Key()] = a
	return a
}

// Fits reports whether shape s can go at anchor at: the anchor is valid
// and every tile is unoccupied.
func (sp *Space) Fits(s *module.Shape, at grid.Point) bool {
	return sp.anchorsFor(s).Get(at.X, at.Y) && !sp.occ.AnyAt(s.Points(), at)
}

// FirstFree returns the bottom-left-most anchor (lowest row, then
// lowest column) in within, clipped to the region, at which s fits. It
// is the one greedy scan every site policy and baseline packer uses.
func (sp *Space) FirstFree(s *module.Shape, within grid.Rect) (grid.Point, bool) {
	within = within.Intersect(sp.Bounds())
	va, pts := sp.anchorsFor(s), s.Points()
	for y := within.MinY; y < within.MaxY; y++ {
		for x := within.MinX; x < within.MaxX; x++ {
			if at := grid.Pt(x, y); va.Get(x, y) && !sp.occ.AnyAt(pts, at) {
				return at, true
			}
		}
	}
	return grid.Point{}, false
}

// Add paints r onto the occupancy and records it as resident.
func (sp *Space) Add(r Resident) {
	r.paint(sp.occ, true)
	sp.residents[r.ID] = r
}

// Remove clears resident id from the occupancy; it reports false when
// id is not resident.
func (sp *Space) Remove(id TaskID) bool {
	r, ok := sp.residents[id]
	if !ok {
		return false
	}
	delete(sp.residents, id)
	r.paint(sp.occ, false)
	return true
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

// TryPlace implements Manager: the (y, x, shape) minimum over each
// shape's first free anchor.
func (m *FirstFit) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	var best Placement
	found := false
	within := sp.Bounds()
	for si := 0; si < shapeRange(mod, m.UseAlternatives); si++ {
		if at, ok := sp.FirstFree(mod.Shape(si), within); ok && (!found || at.Less(best.At)) {
			best, found = Placement{Shape: si, At: at}, true
			within.MaxY = at.Y + 1 // later shapes can only win on this row or below
		}
	}
	return best, found
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
			// inside it — scan bottom-left over the anchors that keep the
			// shape inside the rectangle.
			anchors := grid.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX - s.W() + 1, MaxY: r.MaxY - s.H() + 1}
			if at, ok := sp.FirstFree(s, anchors); ok {
				bestWaste = waste
				best = Placement{Shape: si, At: at}
				found = true
			}
		}
	}
	return best, found
}

// slotWidth is the width of one Slot1D slot in tiles.
const slotWidth = 8

// Slot1D is 1D slot-style placement: the region is pre-partitioned into
// fixed-width, full-height slots and every module exclusively reserves a
// contiguous run of slots — the coarse model of early reconfigurable
// systems the paper's classification contrasts with 2D placement. The
// reserved-but-unused area is internal fragmentation. A resident
// reserves every slot its bounding box touches. Slots are slotWidth
// tiles wide and the module's primary shape is used.
type Slot1D struct{}

// Name implements Manager.
func (m *Slot1D) Name() string { return "1d-slots" }

// TryPlace implements Manager.
func (m *Slot1D) TryPlace(sp *Space, mod *module.Module) (Placement, bool) {
	busy := make([]bool, sp.region.W()/slotWidth)
	//solverlint:allow nondeterminism marking reserved slots is order-independent
	for _, r := range sp.residents {
		last := (r.At.X + r.Module.Shape(r.Shape).W() - 1) / slotWidth
		for i := r.At.X / slotWidth; i <= last && i < len(busy); i++ {
			busy[i] = true
		}
	}
	s := mod.Shape(0)
	need := (s.W() + slotWidth - 1) / slotWidth
	for first := 0; first+need <= len(busy); first++ {
		if slices.Contains(busy[first:first+need], true) {
			continue
		}
		// The module may sit anywhere inside its reserved slots; the
		// fabric's resource pattern decides which anchors work.
		anchors := grid.Rect{MinX: first * slotWidth, MaxX: (first+need)*slotWidth - s.W() + 1, MaxY: sp.region.H()}
		if at, ok := sp.FirstFree(s, anchors); ok {
			return Placement{At: at}, true
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
		&Slot1D{},
	}
}
