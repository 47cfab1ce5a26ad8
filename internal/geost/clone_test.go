package geost

import (
	"testing"

	"repro/internal/csp"
)

// buildCloneKernel models a small placement problem touching every
// geost propagator: top links, pairwise non-overlap, compulsory-part
// pruning and the capacity height bound.
func buildCloneKernel(t *testing.T) (*csp.Store, *Kernel, *csp.Var) {
	t.Helper()
	st := csp.NewStore()
	k := New(st, 4, 4)
	shapes := [][]ShapeGeom{
		{rectGeom(2, 2, 4, 4), rectGeom(1, 4, 4, 4)},
		{rectGeom(2, 1, 4, 4)},
		{rectGeom(1, 2, 4, 4), rectGeom(2, 1, 4, 4)},
	}
	for i, s := range shapes {
		if _, err := k.AddObject(string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	height := k.PostHeightObjective(uniformCapPrefix(4, 4))
	if err := st.Propagate(); err != nil {
		t.Fatalf("root propagation: %v", err)
	}
	return st, k, height
}

// TestKernelCloneIndependence checks a cloned geost store shares no
// mutable state with its source: divergent propagation on one leaves
// the other's domains bit-for-bit unchanged, and both solve to the
// same optimum.
func TestKernelCloneIndependence(t *testing.T) {
	st, k, height := buildCloneKernel(t)
	cl, err := st.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}

	snapshot := func(s *csp.Store) [][]int {
		out := make([][]int, len(s.Vars()))
		for i, v := range s.Vars() {
			out[i] = v.Domain().Values()
		}
		return out
	}
	equal := func(a, b [][]int) bool {
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}

	if !equal(snapshot(st), snapshot(cl)) {
		t.Fatal("clone differs from source immediately after Clone")
	}

	// Assign an object on the clone; the source must not move. This
	// drives nonOverlapPair through the clone's scratch bitmap, which
	// must be the clone's own.
	before := snapshot(st)
	place := k.Objects()[0].Place
	clPlace := cl.Vars()[place.ID()]
	cl.Push()
	if err := cl.Assign(clPlace, clPlace.Min()); err != nil {
		t.Fatalf("assign on clone: %v", err)
	}
	if err := cl.Propagate(); err != nil {
		t.Fatalf("propagate on clone: %v", err)
	}
	if !equal(before, snapshot(st)) {
		t.Fatal("propagation on the clone mutated the source store")
	}
	cl.Pop()

	// Both minimise to the same height.
	solve := func(s *csp.Store) (bool, int) {
		vars := make([]*csp.Var, len(k.Objects()))
		for i, o := range k.Objects() {
			vars[i] = s.Vars()[o.Place.ID()]
		}
		obj := s.Vars()[height.ID()]
		res, err := csp.Minimize(s, vars, obj, csp.Options{}, nil)
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		return res.Found, res.Best
	}
	f1, b1 := solve(st)
	f2, b2 := solve(cl)
	if f1 != f2 || b1 != b2 {
		t.Fatalf("source solved to (%v, %d), clone to (%v, %d)", f1, b1, f2, b2)
	}
}

// TestKernelParallelMinimize runs the full geost model through a
// Workers > 1 Minimize and checks the result matches the sequential one.
func TestKernelParallelMinimize(t *testing.T) {
	st, k, height := buildCloneKernel(t)
	vars := k.PlaceVars()
	seq, err := csp.Minimize(st, vars, height, csp.Options{}, nil)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	for _, workers := range []int{2, 4} {
		pst, pk, pheight := buildCloneKernel(t)
		par, err := csp.Minimize(pst, pk.PlaceVars(), pheight, csp.Options{Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers %d: Minimize: %v", workers, err)
		}
		if par.Found != seq.Found || par.Best != seq.Best || !par.Optimal {
			t.Fatalf("workers %d: (found %v best %d optimal %v), sequential (found %v best %d)",
				workers, par.Found, par.Best, par.Optimal, seq.Found, seq.Best)
		}
	}
}
