package geost

import (
	"repro/internal/csp"
	"repro/internal/grid"
)

// Compulsory-part pruning is the signature reasoning of Beldiceanu's
// geost kernel: even before an object is fixed, the intersection of all
// its remaining candidate footprints may be non-empty — cells the object
// will occupy *no matter what*. Other objects can be pruned against that
// compulsory region immediately, long before the object is assigned.
//
// With polymorphic shapes and non-rectangular footprints the compulsory
// region is computed exactly, as the intersection of the candidate
// footprints. That costs O(|domain| × tiles), so the propagator only
// engages once an object's domain has shrunk below a threshold — early
// in search the intersection is empty anyway.

// compulsoryThreshold is the candidate-count ceiling above which the
// exact compulsory region is not computed.
const compulsoryThreshold = 48

// compulsoryRegion returns the cells occupied under every remaining
// placement of o as a freshly allocated, uncached footprint anchored at
// their bounding box, or nil when the object's domain is too large or
// the intersection is empty. The region lies within the first
// candidate's footprint, so the other candidates are painted into a
// bitmap of just that footprint's box, to test the surviving cells.
func compulsoryRegion(o *Object) *footprint {
	n := o.Place.Size()
	if n == 0 || n > compulsoryThreshold {
		return nil
	}
	var cells []grid.Point // relative to the first candidate's anchor
	var box *grid.Bitmap
	var first grid.Point
	o.Place.Domain().ForEach(func(val int) bool {
		sid, x, y := o.Decode(val)
		g := &o.Shapes[sid]
		if box == nil {
			cells = append([]grid.Point(nil), g.Points...)
			box, first = grid.NewBitmap(g.W, g.H), grid.Pt(x, y)
			return true
		}
		at := grid.Pt(x, y).Sub(first)
		box.SetPointsAt(g.Points, at, true)
		kept := cells[:0]
		for _, c := range cells {
			if box.Get(c.X, c.Y) {
				kept = append(kept, c)
			}
		}
		box.SetPointsAt(g.Points, at, false)
		cells = kept
		return len(cells) > 0
	})
	if len(cells) == 0 {
		return nil
	}
	r := grid.Rect{}
	for _, c := range cells {
		r = r.Union(grid.RectXYWH(c.X, c.Y, 1, 1))
	}
	for i := range cells {
		cells[i] = cells[i].Sub(grid.Pt(r.MinX, r.MinY))
	}
	return &footprint{pts: cells, w: r.W(), h: r.H(), x: first.X + r.MinX, y: first.Y + r.MinY, shape: -1}
}

// compulsoryPair prunes object b against a's compulsory region and vice
// versa. It watches both placement variables and complements the
// assigned-object filtering of the non-overlap propagator.
type compulsoryPair struct {
	k    *Kernel
	a, b *Object
}

// Name implements csp.Named.
func (p *compulsoryPair) Name() string { return "geost.compulsory" }

func (p *compulsoryPair) Propagate(st *csp.Store) error {
	if err := p.dir(st, p.a, p.b); err != nil {
		return err
	}
	return p.dir(st, p.b, p.a)
}

func (p *compulsoryPair) dir(st *csp.Store, narrow, other *Object) error {
	if narrow.Assigned() {
		return nil // the non-overlap propagator already handles fixed objects
	}
	comp := compulsoryRegion(narrow)
	if comp == nil {
		return nil
	}
	return p.k.forbid(st, comp, other)
}

// PostCompulsoryNonOverlap adds compulsory-part pruning to all object
// pairs. Call it after PostNonOverlap; it strengthens, not replaces, the
// filtering against fixed objects.
func (k *Kernel) PostCompulsoryNonOverlap() {
	for i := 0; i < len(k.objects); i++ {
		for j := i + 1; j < len(k.objects); j++ {
			a, b := k.objects[i], k.objects[j]
			k.st.Post(&compulsoryPair{k: k, a: a, b: b}, a.Place, b.Place)
		}
	}
}
