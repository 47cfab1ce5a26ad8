package csp

import "testing"

func TestNotEqual(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 3)
	y := st.NewVarRange("y", 0, 3)
	notEqual(st, x, y, 0)
	if err := st.Assign(x, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if y.Domain().Contains(2) {
		t.Fatal("2 not pruned from y")
	}
}

func TestNotEqualOffset(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 5)
	y := st.NewVarRange("y", 0, 5)
	notEqual(st, x, y, 2) // x != y + 2
	if err := st.Assign(y, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Domain().Contains(3) {
		t.Fatal("3 not pruned from x")
	}
}

func TestLessEq(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 3, 9)
	y := st.NewVarRange("y", 0, 6)
	LessEq(st, x, y)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Max() != 6 || y.Min() != 3 {
		t.Fatalf("bounds x.max=%d y.min=%d, want 6/3", x.Max(), y.Min())
	}
}

// TestAllDifferentPigeonhole checks an infeasibility that only search
// proves: three pairwise-distinct variables over two values propagate
// clean at the root, and exhausting the tree finds no solution.
func TestAllDifferentPigeonhole(t *testing.T) {
	st := NewStore()
	vars := []*Var{
		st.NewVarRange("a", 0, 1),
		st.NewVarRange("b", 0, 1),
		st.NewVarRange("c", 0, 1),
	}
	allDifferent(st, vars...)
	res, err := Solve(st, vars, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 0 || !res.Complete {
		t.Fatalf("pigeonhole: %d solutions, complete=%v", res.Solutions, res.Complete)
	}
}

// TestAllDifferentEnumeration checks exhaustive enumeration delivers
// every permutation exactly once.
func TestAllDifferentEnumeration(t *testing.T) {
	st := NewStore()
	vars := []*Var{
		st.NewVarRange("a", 0, 2),
		st.NewVarRange("b", 0, 2),
		st.NewVarRange("c", 0, 2),
	}
	allDifferent(st, vars...)
	res, err := Solve(st, vars, Options{}, func(*Store) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions != 6 {
		t.Fatalf("permutations = %d, want 6", res.Solutions)
	}
}

func TestMaxOf(t *testing.T) {
	st := NewStore()
	a := st.NewVarRange("a", 2, 7)
	b := st.NewVarRange("b", 0, 4)
	m := st.NewVarRange("m", 0, 100)
	MaxOf(st, m, a, b)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if m.Min() != 2 || m.Max() != 7 {
		t.Fatalf("m = %v, want [2,7]", m)
	}
	if err := st.SetMax(m, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Max() != 3 || b.Max() != 3 {
		t.Fatalf("vars not pruned by m: a=%v b=%v", a, b)
	}
	// Only a can reach m.min (=2 after SetMax? m.min is 2; both reach).
	// Tighten: force b below 2 so only a supports m >= 2... then a.min
	// must rise to m.min.
	if err := st.SetMax(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if a.Min() != 2 {
		t.Fatalf("a.min = %d, want 2 (single support)", a.Min())
	}
}

func TestMaxOfPanicsOnEmpty(t *testing.T) {
	st := NewStore()
	m := st.NewVarRange("m", 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MaxOf(st, m)
}

func TestFuncProp(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	st.Post(FuncProp(func(s *Store) error { return s.SetMin(x, 4) }), x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if x.Min() != 4 {
		t.Fatal("FuncProp did not run")
	}
}
