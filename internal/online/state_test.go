package online

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/grid"
	"repro/internal/workload"
)

func TestNewStateManagerSelection(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	for _, name := range SessionManagers() {
		st, err := NewState(region, StateConfig{Manager: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.ManagerName() == "" {
			t.Fatalf("%s: empty manager name", name)
		}
	}
	for _, alias := range []string{"", "occupied-space", "adjacency"} {
		st, err := NewState(region, StateConfig{Manager: alias})
		if err != nil || st.ManagerName() != "first-fit" {
			t.Fatalf("%q: not first-fit: %v", alias, err)
		}
	}
	if _, err := NewState(region, StateConfig{Manager: "1d-slots"}); err == nil {
		t.Fatal("slot manager accepted for a session")
	}
	if _, err := NewState(nil, StateConfig{}); err == nil {
		t.Fatal("nil region accepted")
	}
}

func TestStatePlaceReleaseLifecycle(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	st, err := NewState(region, StateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Place(1, clbModule("a", 4, 4))
	if err != nil || !out.Placed || out.Replanned {
		t.Fatalf("place: %+v, %v", out, err)
	}
	if out.Reconfig <= 0 {
		t.Fatalf("placement priced at %v", out.Reconfig)
	}
	if _, err := st.Place(1, clbModule("dup", 2, 2)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	stats := st.Stats()
	if stats.Residents != 1 || stats.OccupiedTiles != 16 || stats.Placed != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Utilization <= 0 {
		t.Fatalf("utilization: %+v", stats)
	}
	if !st.Release(1) {
		t.Fatal("release of resident failed")
	}
	if st.Release(1) {
		t.Fatal("double release reported success")
	}
	// The freed space is reusable, both in the shadow and the manager.
	if out, err = st.Place(2, clbModule("b", 8, 8)); err != nil || !out.Placed {
		t.Fatalf("region not fully reusable after release: %+v, %v", out, err)
	}

	// A seeded Place/Release/Defrag churn per session manager on a
	// heterogeneous region. Residents are stored as placements only, so
	// after every step the shadow occupancy must equal a from-scratch
	// repaint of Residents() — each placement revalidated — and the
	// reported occupied tiles must match it.
	spec := fabric.Spec{Name: "churn", W: 24, H: 12, BRAMColumns: []int{5, 14}}
	hetero := spec.MustBuild().FullRegion()
	for _, name := range SessionManagers() {
		t.Run(name, func(t *testing.T) {
			st, err := NewState(hetero, StateConfig{
				Manager: name, UseAlternatives: true, Replan: core.Options{StallNodes: 50},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			next := TaskID(1)
			for step := 0; step < 60; step++ {
				res := st.Residents()
				switch r := rng.Float64(); {
				case r < 0.55 || len(res) == 0:
					mods := workload.MustGenerate(workload.Config{
						NumModules: 1, CLBMin: 4, CLBMax: 12, BRAMMax: 1, Alternatives: 2,
					}, rng)
					if _, err := st.Place(next, mods[0]); err != nil {
						t.Fatalf("step %d place: %v", step, err)
					}
					next++
				case r < 0.85:
					st.Release(res[rng.Intn(len(res))].ID)
				default:
					// A relocation cycle is a Blocked outcome with no
					// moves, never an error.
					out, err := st.Defrag()
					if err != nil {
						t.Fatalf("step %d defrag: %v", step, err)
					}
					if out.Blocked > 0 && len(out.Moves) > 0 {
						t.Fatalf("step %d: blocked defrag moved residents: %+v", step, out)
					}
				}
				repaint := grid.NewBitmap(hetero.W(), hetero.H())
				for _, r := range st.Residents() {
					pts, err := ValidatePlacement(hetero, repaint, r.Module, Placement{Shape: r.Shape, At: r.At})
					if err != nil {
						t.Fatalf("step %d: resident %d: %v", step, r.ID, err)
					}
					repaint.SetPoints(pts, true)
				}
				if got, want := st.sp.occ.String(), repaint.String(); got != want {
					t.Fatalf("step %d: occupancy\n%s\nrepaint of residents\n%s", step, got, want)
				}
				if got := st.Stats().OccupiedTiles; got != repaint.Count() {
					t.Fatalf("step %d: OccupiedTiles %d, repaint has %d", step, got, repaint.Count())
				}
			}
		})
	}
}

func TestStateCapacityRejectionIsNotAnError(t *testing.T) {
	region := fabric.Homogeneous(4, 4).FullRegion()
	st, err := NewState(region, StateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := st.Place(1, clbModule("a", 4, 4)); err != nil || !out.Placed {
		t.Fatalf("first: %+v, %v", out, err)
	}
	out, err := st.Place(2, clbModule("b", 2, 2))
	if err != nil {
		t.Fatalf("capacity rejection errored: %v", err)
	}
	if out.Placed {
		t.Fatalf("placed into a full region: %+v", out)
	}
	if st.Stats().Rejected != 1 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

// TestStateReplanAdmitsBlockedArrival fragments a 16x4 strip (two 4x4
// holes), offers an 8x4 module greedy placement cannot site, and
// expects the CP replan to relocate residents and admit it.
func TestStateReplanAdmitsBlockedArrival(t *testing.T) {
	region := fabric.Homogeneous(16, 4).FullRegion()
	st, err := NewState(region, StateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for id := TaskID(1); id <= 4; id++ {
		if out, err := st.Place(id, clbModule("m", 4, 4)); err != nil || !out.Placed {
			t.Fatalf("seed %d: %+v, %v", id, out, err)
		}
	}
	st.Release(2)
	st.Release(4)

	out, err := st.Place(5, clbModule("wide", 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Placed || !out.Replanned {
		t.Fatalf("replan did not admit the blocked arrival: %+v", out)
	}
	if len(out.Moves) == 0 {
		t.Fatalf("admission without relocations cannot happen here: %+v", out)
	}
	for _, mv := range out.Moves {
		if mv.Frames <= 0 || mv.Reconfig <= 0 {
			t.Fatalf("unpriced move: %+v", mv)
		}
	}
	stats := st.Stats()
	if stats.Replans != 1 || stats.Moves != len(out.Moves) || stats.Residents != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	// The shadow residency must be disjoint and complete: 16+16+32 tiles
	// on a 64-tile region means full occupancy.
	if stats.OccupiedTiles != 64 || stats.Utilization != 1 {
		t.Fatalf("layout not tight after replan: %+v", stats)
	}
	// The re-seeded manager must agree with the shadow: nothing fits.
	if out, err := st.Place(6, clbModule("x", 1, 1)); err != nil || out.Placed {
		t.Fatalf("manager out of sync after replan: %+v, %v", out, err)
	}
}

// TestStateDefragLowersFragmentation builds an L-shaped free space
// (fragmentation 0.5) and expects a defrag pass to compact the layout
// and reduce the metric.
func TestStateDefragLowersFragmentation(t *testing.T) {
	region := fabric.Homogeneous(8, 12).FullRegion()
	st, err := NewState(region, StateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// First-fit layout: 1 = 8x4@(0,0), 2 = 4x4@(0,4), 3 = 4x4@(4,4),
	// 4 = 4x4@(0,8). Releasing 2 leaves two 4x4 holes at (0,4) and
	// (4,8) within the occupied span.
	specs := []struct {
		id   TaskID
		w, h int
	}{{1, 8, 4}, {2, 4, 4}, {3, 4, 4}, {4, 4, 4}}
	for _, sp := range specs {
		if out, err := st.Place(sp.id, clbModule("m", sp.w, sp.h)); err != nil || !out.Placed {
			t.Fatalf("seed %d: %+v, %v", sp.id, out, err)
		}
	}
	st.Release(2)

	out, err := st.Defrag()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Moves) == 0 {
		t.Fatalf("no compaction moves: %+v", out)
	}
	if out.FragAfter >= out.FragBefore {
		t.Fatalf("defrag did not lower fragmentation: %+v", out)
	}
	if out.Reconfig <= 0 {
		t.Fatalf("unpriced defrag: %+v", out)
	}
	stats := st.Stats()
	if stats.Defrags != 1 || stats.Residents != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	// Every resident must still hold a valid, disjoint placement.
	occ := grid.NewBitmap(region.W(), region.H())
	for _, r := range st.Residents() {
		pts, err := ValidatePlacement(region, occ, r.Module, Placement{Shape: r.Shape, At: r.At})
		if err != nil {
			t.Fatalf("resident %d invalid after defrag: %v", r.ID, err)
		}
		occ.SetPoints(pts, true)
	}
	// Compacted 8x8 block: the freed 8x4 strip on top is usable again.
	if out, err := st.Place(5, clbModule("top", 8, 4)); err != nil || !out.Placed || out.Replanned {
		t.Fatalf("compacted space not greedily usable: %+v, %v", out, err)
	}
}

// TestStateDefragEmptyAndTight covers the no-op paths: an empty session
// and an already-tight layout both return an empty outcome.
func TestStateDefragEmptyAndTight(t *testing.T) {
	region := fabric.Homogeneous(8, 8).FullRegion()
	st, err := NewState(region, StateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := st.Defrag(); err != nil || len(out.Moves) != 0 {
		t.Fatalf("empty session: %+v, %v", out, err)
	}
	if _, err := st.Place(1, clbModule("a", 8, 4)); err != nil {
		t.Fatal(err)
	}
	out, err := st.Defrag()
	if err != nil || len(out.Moves) != 0 {
		t.Fatalf("tight layout: %+v, %v", out, err)
	}
}

// TestSlot1DReservesSlotsOfEngineResidents places residents through
// the engine, not through Slot1D: one fills slot 0, one straddles slots
// 1 and 2 but leaves the top of both geometrically free. The manager
// must keep out of all three slots, and see slots 1 and 2 free again
// once the engine releases the straddling resident.
func TestSlot1DReservesSlotsOfEngineResidents(t *testing.T) {
	region := fabric.Homogeneous(4*slotWidth, 8).FullRegion()
	m := &Slot1D{}
	st, err := newState(region, m, fabric.DefaultFrameModel(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.sp.Add(Resident{ID: 1, Module: clbModule("a", slotWidth, 8), At: grid.Pt(0, 0)})
	// x in [10, 22), y in [0, 4): slots 1 and 2.
	st.sp.Add(Resident{ID: 2, Module: clbModule("b", 12, 4), At: grid.Pt(10, 0)})
	p, ok := m.TryPlace(st.sp, clbModule("c", slotWidth, 4))
	if !ok {
		t.Fatal("free slot 3 not usable")
	}
	if p.At.X < 3*slotWidth {
		t.Fatalf("placement %v landed in a reserved slot", p)
	}
	if _, ok := m.TryPlace(st.sp, clbModule("d", 2*slotWidth, 4)); ok {
		t.Fatal("two-slot module placed with no two adjacent free slots")
	}
	st.Release(2)
	if p, ok := m.TryPlace(st.sp, clbModule("d", 2*slotWidth, 4)); !ok || p.At.X != slotWidth {
		t.Fatalf("slots 1 and 2 not freed by the release: %v, %v", p, ok)
	}
}
