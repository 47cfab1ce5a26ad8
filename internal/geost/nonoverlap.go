package geost

import (
	"repro/internal/csp"
	"repro/internal/grid"
)

// nonOverlap is the global non-overlap propagator: it watches every
// placement variable and applies each newly fixed object once, removing
// its forbidden anchors (Beldiceanu et al.'s forbidden regions) from
// every other domain as offset-mask rows. The applied objects are
// order[:n], n being the minimum of the unwatched store variable
// applied: trailed at the level that applied them, it is restored by
// Pop and Store.Clone. Applying swaps only positions >= n, which leaves
// every shallower level's prefix intact.
type nonOverlap struct {
	k       *Kernel
	order   []int
	applied *csp.Var
}

// Name implements csp.Named.
func (p *nonOverlap) Name() string { return "geost.non-overlap" }

func (p *nonOverlap) Propagate(st *csp.Store) error {
	objs := p.k.objects[:len(p.order)]
	n0 := p.applied.Min()
	n := n0
	for i := n0; i < len(p.order); i++ {
		if objs[p.order[i]].Assigned() {
			p.order[n], p.order[i] = p.order[i], p.order[n]
			n++
		}
	}
	if n == n0 {
		return nil
	}
	if err := st.SetMin(p.applied, n); err != nil {
		return err
	}
	for _, id := range p.order[n0:n] {
		fixed := objs[id]
		sid, x, y := fixed.Placement()
		g := &fixed.Shapes[sid]
		fp := footprint{pts: g.Points, w: g.W, h: g.H, x: x, y: y, shape: fixed.shape0 + sid}
		for _, other := range objs {
			if other == fixed {
				continue
			}
			if err := p.k.forbid(st, &fp, other); err != nil {
				return err
			}
		}
	}
	return nil
}

// footprint is a set of cells anchored at (x, y): a fixed object's
// shape or a compulsory region, with pts in [0,w)×[0,h). shape is the
// kernel-wide index of a fixed shape, keying the mask cache; -1 for a
// footprint whose masks are not cached.
type footprint struct {
	pts               []grid.Point
	w, h, x, y, shape int
}

// offsetMask is P(G) ⊕ (−P(S)) for a footprint G and a shape S: bit c
// of row r is set when S anchored at offset (c−ox, r−oy) from G meets
// it, with ox = S.W−1 and oy = S.H−1. Rows are stride words wide, so a
// mask may span more than 64 columns. The placement encoding
// ((sid·H)+y)·W+x is row-major, so a mask row placed at G's anchor
// selects a run of consecutive values (a csp.BitRow).
type offsetMask struct {
	w, h, ox, oy, stride int
	bits                 []uint64
}

func newOffsetMask(fp *footprint, s *ShapeGeom) offsetMask {
	m := offsetMask{w: fp.w + s.W - 1, h: fp.h + s.H - 1, ox: s.W - 1, oy: s.H - 1}
	m.stride = (m.w + 63) >> 6
	m.bits = make([]uint64, m.stride*m.h)
	for _, g := range fp.pts {
		for _, q := range s.Points {
			c, r := g.X-q.X+m.ox, g.Y-q.Y+m.oy
			m.bits[r*m.stride+c>>6] |= 1 << uint(c&63)
		}
	}
	return m
}

// appendRows appends the forbidden anchors of shape sid, of height sh,
// against G anchored at (fx, fy): one row per anchor row y, clipped to
// x in [0, W) and y in [0, H−sh] so that no bit reaches a neighbouring
// row or shape block of the encoding.
func (m *offsetMask) appendRows(rows []csp.BitRow, k *Kernel, sid, sh, fx, fy int) []csp.BitRow {
	x0, y0 := fx-m.ox, fy-m.oy
	lo, hi := max(0, -x0), min(m.w, k.w-x0)
	if lo >= hi {
		return rows
	}
	for y := max(0, y0); y <= min(k.h-sh, y0+m.h-1); y++ {
		r := (y - y0) * m.stride
		rows = append(rows, csp.BitRow{Start: k.encode(sid, x0+lo, y), Bits: m.bits[r : r+m.stride], Off: lo, Len: hi - lo})
	}
	return rows
}

// maskFor returns the offset mask of fp against shape sid of o, cached
// per kernel (and built at first use) when fp is a fixed shape.
func (k *Kernel) maskFor(fp *footprint, o *Object, sid int) offsetMask {
	if fp.shape < 0 {
		return newOffsetMask(fp, &o.Shapes[sid])
	}
	if k.masks == nil {
		k.masks = make([][]offsetMask, k.nShapes)
	}
	if k.masks[fp.shape] == nil {
		k.masks[fp.shape] = make([]offsetMask, k.nShapes)
	}
	m := &k.masks[fp.shape][o.shape0+sid]
	if m.bits == nil {
		*m = newOffsetMask(fp, &o.Shapes[sid])
	}
	return *m
}

// forbid removes from o's placement domain every anchor at which some
// shape of o meets fp. Shapes absent from the domain are skipped, and
// an assigned o costs one mask-bit test.
func (k *Kernel) forbid(st *csp.Store, fp *footprint, o *Object) error {
	if o.Assigned() {
		sid, x, y := o.Placement()
		m := k.maskFor(fp, o, sid)
		c, r := x-fp.x+m.ox, y-fp.y+m.oy
		if c >= 0 && c < m.w && r >= 0 && r < m.h && m.bits[r*m.stride+c>>6]&(1<<uint(c&63)) != 0 {
			return csp.ErrInconsistent
		}
		return nil
	}
	rows := k.rows[:0]
	for sid := range o.Shapes {
		if o.ShapePresent(sid) {
			m := k.maskFor(fp, o, sid)
			rows = m.appendRows(rows, k, sid, o.Shapes[sid].H, fp.x, fp.y)
		}
	}
	k.rows = rows
	return st.RemoveRows(o.Place, rows)
}
