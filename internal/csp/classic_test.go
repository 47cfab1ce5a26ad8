package csp

// Classic constraint problems exercising the solver beyond placement:
// they validate the propagation/search machinery against known answers.

import "testing"

// TestLangfordPairs solves L(2,n): arrange pairs of 1..n so the two
// copies of k are k+1 apart. Known solution counts (up to reversal
// symmetry the raw count doubles): n=3 -> 2, n=4 -> 2, n=7 -> 52.
func TestLangfordPairs(t *testing.T) {
	counts := map[int]int{3: 2, 4: 2, 7: 52}
	for n, want := range counts {
		st := NewStore()
		// pos[k] is the index of the first copy of k+1; second copy sits
		// at pos[k] + (k+1) + 1.
		size := 2 * n
		pos := make([]*Var, n)
		for k := range pos {
			pos[k] = st.NewVarRange("p", 0, size-(k+1)-2)
		}
		// All 2n slots distinct: pairwise constraints between all copies.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				da, db := a+2, b+2 // gap of value k is k+1 where value = k+1 -> a+1+1
				notEqual(st, pos[a], pos[b], 0)
				notEqual(st, pos[a], pos[b], db) // first a vs second b
				notEqual(st, pos[b], pos[a], da) // first b vs second a
				// second a vs second b: pos[a]+da != pos[b]+db
				notEqual(st, pos[a], pos[b], db-da)
			}
		}
		res, err := Solve(st, pos, Options{}, func(*Store) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if res.Solutions != want || !res.Complete {
			t.Errorf("L(2,%d): %d solutions, want %d", n, res.Solutions, want)
		}
	}
}

// TestGolombRulerMinimize finds the optimal length of a 5-mark Golomb
// ruler (known optimum: 11).
func TestGolombRulerMinimize(t *testing.T) {
	const marks = 5
	const maxLen = 20
	st := NewStore()
	m := make([]*Var, marks)
	for i := range m {
		m[i] = st.NewVarRange("m", 0, maxLen)
	}
	if err := st.Assign(m[0], 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < marks; i++ {
		// Strictly increasing.
		LessEq(st, m[i], m[i+1])
		notEqual(st, m[i+1], m[i], 0)
	}
	// All pairwise differences distinct: difference variables + pairwise
	// inequality.
	var diffs []*Var
	for i := 0; i < marks; i++ {
		for j := i + 1; j < marks; j++ {
			d := st.NewVarRange("d", 1, maxLen)
			// d = m[j] - m[i]: enforce with two custom half-constraints.
			i, j := i, j
			st.Post(FuncProp(func(store *Store) error {
				if err := store.SetMin(d, m[j].Min()-m[i].Max()); err != nil {
					return err
				}
				if err := store.SetMax(d, m[j].Max()-m[i].Min()); err != nil {
					return err
				}
				if err := store.SetMin(m[j], m[i].Min()+d.Min()); err != nil {
					return err
				}
				if err := store.SetMax(m[j], m[i].Max()+d.Max()); err != nil {
					return err
				}
				if err := store.SetMin(m[i], m[j].Min()-d.Max()); err != nil {
					return err
				}
				return store.SetMax(m[i], m[j].Max()-d.Min())
			}), m[i], m[j], d)
			diffs = append(diffs, d)
		}
	}
	allDifferent(st, diffs...)

	res, err := Minimize(st, m, m[marks-1], Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Best != 11 || !res.Optimal {
		t.Fatalf("Golomb(5): %+v, want best=11 optimal", res)
	}
}
