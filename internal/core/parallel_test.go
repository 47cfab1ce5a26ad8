package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/module"
)

// TestPlacerParallelMatchesSequential checks the core-level contract
// of Options.Workers: exhaustive parallel solves return the same
// height AND the identical placement as the sequential solver, for
// every strategy and worker count. The static strategies guarantee
// the placement; under first-fail the contract only fixes one
// placement per instance, which here is the sequential one. This is
// the end-to-end counterpart of the csp-level
// TestParallelMatchesSequential, driving the full geost model (clone
// protocol, positional heuristics, id-based snapshots) through worker
// goroutines; run it under -race.
func TestPlacerParallelMatchesSequential(t *testing.T) {
	r := fabric.Homogeneous(6, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2),
		barModule("b", 4),
		rectModule("c", 2, 3),
		barModule("d", 3),
	}
	for _, strategy := range []Strategy{StrategyFirstFail, StrategyLargestFirst, StrategyInputOrder} {
		seq, err := New(r, Options{Strategy: strategy}).Place(mods)
		if err != nil {
			t.Fatalf("%v sequential: %v", strategy, err)
		}
		if !seq.Found || !seq.Optimal {
			t.Fatalf("%v sequential did not close the instance: %+v", strategy, seq)
		}
		for _, workers := range []int{2, 4} {
			par, err := New(r, Options{Strategy: strategy, Workers: workers}).Place(mods)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strategy, workers, err)
			}
			if !par.Found || !par.Optimal {
				t.Fatalf("%v workers=%d did not close the instance: reason %v", strategy, workers, par.Reason)
			}
			if par.Height != seq.Height {
				t.Fatalf("%v workers=%d: height %d, sequential %d", strategy, workers, par.Height, seq.Height)
			}
			if err := par.Validate(r); err != nil {
				t.Fatalf("%v workers=%d: invalid placement: %v", strategy, workers, err)
			}
			if len(par.Placements) != len(seq.Placements) {
				t.Fatalf("%v workers=%d: placement count mismatch", strategy, workers)
			}
			for i := range seq.Placements {
				if par.Placements[i].At != seq.Placements[i].At ||
					par.Placements[i].ShapeIndex != seq.Placements[i].ShapeIndex {
					t.Fatalf("%v workers=%d: module %s placed at %v shape %d, sequential %v shape %d",
						strategy, workers, seq.Placements[i].Module.Name(),
						par.Placements[i].At, par.Placements[i].ShapeIndex,
						seq.Placements[i].At, seq.Placements[i].ShapeIndex)
				}
			}
		}
	}
}

// TestPlacerParallelFirstSolution checks Workers with
// FirstSolutionOnly: some valid complete placement arrives (which one
// is scheduling-dependent, as documented).
func TestPlacerParallelFirstSolution(t *testing.T) {
	r := fabric.Homogeneous(6, 10).FullRegion()
	mods := []*module.Module{
		rectModule("a", 3, 2), rectModule("b", 2, 4), rectModule("c", 4, 2),
	}
	res, err := New(r, Options{FirstSolutionOnly: true, Workers: 4}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement found")
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Fatal("first-solution mode must not claim optimality")
	}
}

// TestPlacerParallelStalled checks stop-reason plumbing end to end:
// a stalled parallel solve reports Stalled with a valid incumbent.
func TestPlacerParallelStalled(t *testing.T) {
	r := fabric.Homogeneous(8, 24).FullRegion()
	var mods []*module.Module
	for i := 0; i < 7; i++ {
		mods = append(mods, rectModule(string(rune('a'+i)), 2+i%3, 2+(i+1)%2))
	}
	res, err := New(r, Options{StallNodes: 100, Workers: 4}).Place(mods)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no placement before stalling")
	}
	if err := res.Validate(r); err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		// The instance may close before the stall budget; that is fine,
		// but then the reason must say so.
		if res.Stalled {
			t.Fatal("both Optimal and Stalled set")
		}
	}
}
