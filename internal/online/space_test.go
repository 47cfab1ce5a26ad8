package online

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/module"
	"repro/internal/workload"
)

// bruteFits is the definition FirstFree must implement: every tile of s
// at (x, y) lies in the region on a tile of its own kind and is free.
func bruteFits(region *fabric.Region, occ *grid.Bitmap, s *module.Shape, x, y int) bool {
	for _, t := range s.Tiles() {
		ax, ay := x+t.At.X, y+t.At.Y
		if ax < 0 || ay < 0 || ax >= region.W() || ay >= region.H() ||
			region.KindAt(ax, ay) != t.Kind || occ.Get(ax, ay) {
			return false
		}
	}
	return true
}

// spaceFixture builds a region with BRAM columns, a module mix with
// BRAM-bearing alternatives plus one shape wider than the region, and a
// random occupancy over it.
func spaceFixture(rng *rand.Rand, density float64) (*Space, []*module.Module) {
	region := (&fabric.Spec{Name: "ff", W: 20, H: 12, BRAMColumns: []int{3, 11}}).MustBuild().FullRegion()
	mods := workload.MustGenerate(workload.Config{
		NumModules: 6, CLBMin: 2, CLBMax: 12, BRAMMin: 1, BRAMMax: 2, Alternatives: 3,
	}, rng)
	mods = append(mods, clbModule("wide", region.W()+1, 1))
	sp := NewSpace(region)
	for y := 0; y < region.H(); y++ {
		for x := 0; x < region.W(); x++ {
			if rng.Float64() < density {
				sp.occ.Set(x, y, true)
			}
		}
	}
	return sp, mods
}

// TestFirstFree checks Space.FirstFree and Space.Fits against a
// brute-force row-major scan, over random occupancies and within
// rectangles that cross the region edge, including the empty rectangle
// and a shape wider than the region.
func TestFirstFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	found := 0
	for trial := 0; trial < 60; trial++ {
		sp, mods := spaceFixture(rng, rng.Float64()*0.4)
		w, h := sp.region.W(), sp.region.H()
		withins := []grid.Rect{{}, sp.Bounds(), {MinX: -5, MinY: -5, MaxX: w + 5, MaxY: h + 5}}
		for i := 0; i < 6; i++ {
			x0, y0 := rng.Intn(w+6)-3, rng.Intn(h+6)-3
			withins = append(withins, grid.Rect{MinX: x0, MinY: y0, MaxX: x0 + rng.Intn(w), MaxY: y0 + rng.Intn(h)})
		}
		for _, m := range mods {
			for si := 0; si < m.NumShapes(); si++ {
				s := m.Shape(si)
				for _, within := range withins {
					var want grid.Point
					wantOK := false
				scan:
					for y := within.MinY; y < within.MaxY; y++ {
						for x := within.MinX; x < within.MaxX; x++ {
							if bruteFits(sp.region, sp.occ, s, x, y) {
								want, wantOK = grid.Pt(x, y), true
								break scan
							}
						}
					}
					got, ok := sp.FirstFree(s, within)
					if ok != wantOK || got != want {
						t.Fatalf("trial %d %s/%d within %v: got %v,%v want %v,%v", trial, m.Name(), si, within, got, ok, want, wantOK)
					}
					if ok {
						found++
					}
				}
				for i := 0; i < 20; i++ {
					x, y := rng.Intn(w+4)-2, rng.Intn(h+4)-2
					if got, want := sp.Fits(s, grid.Pt(x, y)), bruteFits(sp.region, sp.occ, s, x, y); got != want {
						t.Fatalf("trial %d %s/%d Fits(%d,%d) = %v, want %v", trial, m.Name(), si, x, y, got, want)
					}
				}
			}
		}
		if _, ok := sp.FirstFree(mods[len(mods)-1].Shape(0), sp.Bounds()); ok {
			t.Fatal("shape wider than the region found an anchor")
		}
	}
	if found == 0 {
		t.Fatal("no scan found an anchor; the fixture tests nothing")
	}
}

// TestFirstFitIsBruteForceMinimum checks that FirstFit.TryPlace returns
// the (y, x, shape) minimum over every fitting shape and anchor.
func TestFirstFitIsBruteForceMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		sp, mods := spaceFixture(rng, rng.Float64()*0.5)
		for _, alts := range []bool{false, true} {
			ff := &FirstFit{UseAlternatives: alts}
			for _, m := range mods {
				var want Placement
				wantOK := false
			scan:
				for y := 0; y < sp.region.H(); y++ {
					for x := 0; x < sp.region.W(); x++ {
						for si := 0; si < shapeRange(m, alts); si++ {
							if bruteFits(sp.region, sp.occ, m.Shape(si), x, y) {
								want, wantOK = Placement{Shape: si, At: grid.Pt(x, y)}, true
								break scan
							}
						}
					}
				}
				if got, ok := ff.TryPlace(sp, m); ok != wantOK || got != want {
					t.Fatalf("trial %d %s alts=%v: got %+v,%v want %+v,%v", trial, m.Name(), alts, got, ok, want, wantOK)
				}
			}
		}
	}
}
