package geost

import (
	"math/rand"
	"testing"

	"repro/internal/csp"
	"repro/internal/grid"
)

func TestCompulsoryRegionExact(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 5, 5)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(3, 3, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	// Restrict anchors to (0,0) and (1,1): footprints (0..2)² and
	// (1..3)² intersect in (1..2)².
	if err := st.FilterDomain(o.Place, func(v int) bool {
		_, x, y := o.Decode(v)
		return (x == 0 && y == 0) || (x == 1 && y == 1)
	}); err != nil {
		t.Fatal(err)
	}
	comp := compulsoryRegion(o)
	if comp == nil {
		t.Fatal("no compulsory region")
	}
	if len(comp.pts) != 4 || comp.w != 2 || comp.h != 2 {
		t.Fatalf("compulsory region %+v, want the 4 cells of a 2x2 box", comp)
	}
	cells := map[grid.Point]bool{}
	for _, p := range comp.pts {
		cells[p.Add(grid.Pt(comp.x, comp.y))] = true
	}
	for _, p := range []grid.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 2}} {
		if !cells[p] {
			t.Fatalf("cell %v missing from compulsory region %+v", p, comp)
		}
	}
}

func TestCompulsoryRegionEmptyOrLarge(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 8, 8)
	o, err := k.AddObject("a", []ShapeGeom{rectGeom(2, 2, 8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// 49 candidates > threshold: skipped.
	if comp := compulsoryRegion(o); comp != nil {
		t.Fatal("large domain should skip compulsory computation")
	}
	// Two far-apart candidates: empty intersection.
	if err := st.FilterDomain(o.Place, func(v int) bool {
		_, x, y := o.Decode(v)
		return (x == 0 && y == 0) || (x == 6 && y == 6)
	}); err != nil {
		t.Fatal(err)
	}
	if comp := compulsoryRegion(o); comp != nil {
		t.Fatal("disjoint candidates should have no compulsory region")
	}
}

func TestCompulsoryPairPrunesBeforeAssignment(t *testing.T) {
	// Object a is a 3x3 block restricted to two overlapping anchors;
	// its compulsory 2x2 centre must already prune b's placements even
	// though a is not assigned.
	st := csp.NewStore()
	k := New(st, 5, 5)
	a, err := k.AddObject("a", []ShapeGeom{rectGeom(3, 3, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.AddObject("b", []ShapeGeom{rectGeom(2, 2, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	before := b.CandidateCount()
	if err := st.FilterDomain(a.Place, func(v int) bool {
		_, x, y := a.Decode(v)
		return (x == 0 && y == 0) || (x == 1 && y == 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Assigned() {
		t.Fatal("test premise broken: a assigned")
	}
	if b.CandidateCount() >= before {
		t.Fatalf("no compulsory pruning: %d >= %d", b.CandidateCount(), before)
	}
	// b anchors overlapping the compulsory square (1..2)² are gone.
	b.Place.Domain().ForEach(func(val int) bool {
		_, x, y := b.Decode(val)
		if grid.RectXYWH(x, y, 2, 2).Overlaps(grid.RectXYWH(1, 1, 2, 2)) {
			t.Fatalf("placement (%d,%d) overlaps compulsory region", x, y)
		}
		return true
	})
}

func TestCompulsorySameOptimaAsPlainNonOverlap(t *testing.T) {
	// Minimised height must be identical with and without the extra
	// pruning: it only removes provably infeasible placements.
	solve := func(compulsory bool) int {
		st := csp.NewStore()
		k := New(st, 4, 6)
		for i := 0; i < 3; i++ {
			if _, err := k.AddObject(string(rune('a'+i)), []ShapeGeom{rectGeom(2, 2, 4, 6)}); err != nil {
				t.Fatal(err)
			}
		}
		k.PostNonOverlap()
		if compulsory {
			k.PostCompulsoryNonOverlap()
		}
		height := k.PostHeightObjective(uniformCapPrefix(4, 6))
		res, err := csp.Minimize(st, k.PlaceVars(), height, csp.Options{}, nil)
		if err != nil || !res.Found || !res.Optimal {
			t.Fatalf("minimize: %v %+v", err, res)
		}
		return res.Best
	}
	if with, without := solve(true), solve(false); with != without {
		t.Fatalf("compulsory pruning changed the optimum: %d vs %d", with, without)
	}
}

// TestCompulsoryRegionMatchesBruteForce compares compulsoryRegion with
// the cell-wise AND of every candidate footprint painted on the whole
// space, for random polymorphic objects with holes restricted to
// random small candidate sets.
func TestCompulsoryRegionMatchesBruteForce(t *testing.T) {
	const W, H = 12, 9
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		st := csp.NewStore()
		k := New(st, W, H)
		shapes := make([]ShapeGeom, 1+rng.Intn(3))
		for i := range shapes {
			shapes[i] = randomShape(rng, 5, 4, W, H)
		}
		o, err := k.AddObject("o", shapes)
		if err != nil {
			t.Fatal(err)
		}
		all := o.Place.Domain().Values()
		keep := map[int]bool{}
		for len(keep) < 2+rng.Intn(4) && len(keep) < len(all) {
			// Cluster the candidates so their footprints tend to overlap.
			v := all[rng.Intn(len(all))]
			if _, x, y := o.Decode(v); x < 4 && y < 3 {
				keep[v] = true
			}
		}
		if len(keep) == 0 {
			continue
		}
		if err := st.FilterDomain(o.Place, func(v int) bool { return keep[v] }); err != nil {
			t.Fatal(err)
		}
		var want *grid.Bitmap
		o.Place.Domain().ForEach(func(v int) bool {
			sid, x, y := o.Decode(v)
			cur := grid.NewBitmap(W, H)
			cur.SetPointsAt(o.Shapes[sid].Points, grid.Pt(x, y), true)
			if want == nil {
				want = cur
			} else {
				want.And(cur)
			}
			return true
		})
		got := grid.NewBitmap(W, H)
		if comp := compulsoryRegion(o); comp != nil {
			got.SetPointsAt(comp.pts, grid.Pt(comp.x, comp.y), true)
			for _, p := range comp.pts {
				if p.X < 0 || p.X >= comp.w || p.Y < 0 || p.Y >= comp.h {
					t.Fatalf("iter %d: point %v outside the %dx%d footprint box", iter, p, comp.w, comp.h)
				}
			}
		}
		if got.String() != want.String() {
			t.Fatalf("iter %d: compulsory region\n%s\nbrute force\n%s", iter, got, want)
		}
	}
}
