// Package core implements the paper's module placer: given a
// heterogeneous partial region and a set of modules with design
// alternatives, it computes a placement minimising the occupied height —
// and thereby maximising average resource utilization — by constraint
// programming over the geost kernel.
//
// The constraint model follows Section III of the paper:
//
//   - M_a (inside the region) and M_b (resource-type match) are fused
//     into per-shape valid-anchor bitmaps computed by ValidAnchors;
//   - M_c (non-overlap) is the geost kernel's forbidden-anchor filter;
//   - the objective (eq. 6) is the geost occupied-height variable,
//     minimised by branch-and-bound.
package core

import (
	"repro/internal/fabric"
	"repro/internal/geost"
	"repro/internal/grid"
	"repro/internal/module"
)

// ValidAnchors computes the anchor positions where shape s can be
// placed on region r: anchor (x, y) is valid iff every tile of s,
// translated by (x, y), lands on a region tile of exactly the tile's
// resource kind. This realises the paper's constraints M_a ∧ M_b — the
// geost extension of boxes and forbidden regions with a resource
// property.
func ValidAnchors(r *fabric.Region, s *module.Shape) *grid.Bitmap {
	b := grid.NewBitmap(r.W(), r.H())
	maxX := r.W() - s.W()
	maxY := r.H() - s.H()
	tiles := s.Tiles()
	for y := 0; y <= maxY; y++ {
	anchors:
		for x := 0; x <= maxX; x++ {
			for _, t := range tiles {
				if r.KindAt(x+t.At.X, y+t.At.Y) != t.Kind {
					continue anchors
				}
			}
			b.Set(x, y, true)
		}
	}
	return b
}

// ShapeGeomFor converts a module shape into the geost kernel's geometry,
// including its valid-anchor bitmap on r.
func ShapeGeomFor(r *fabric.Region, s *module.Shape) geost.ShapeGeom {
	return geost.ShapeGeom{
		Points: s.Points(),
		W:      s.W(),
		H:      s.H(),
		Valid:  ValidAnchors(r, s),
		Hist:   s.Histogram(),
	}
}

// CapacityPrefix returns, for every h in 0..r.H(), the per-kind tile
// capacity of the region's first h rows. It feeds the geost kernel's
// capacity-based height bound.
func CapacityPrefix(r *fabric.Region) []fabric.Histogram {
	out := make([]fabric.Histogram, r.H()+1)
	for y := 0; y < r.H(); y++ {
		out[y+1] = out[y]
		for x := 0; x < r.W(); x++ {
			out[y+1].Add(r.KindAt(x, y))
		}
	}
	return out
}
