package csp

import (
	"errors"
	"math/rand"
	"testing"
)

func TestStoreVarBasics(t *testing.T) {
	st := NewStore()
	v := st.NewVarRange("x", 1, 5)
	if v.Name() != "x" || v.Min() != 1 || v.Max() != 5 || v.Size() != 5 {
		t.Fatalf("var wrong: %v", v)
	}
	if v.Assigned() {
		t.Fatal("fresh var assigned")
	}
	if err := st.Assign(v, 3); err != nil {
		t.Fatal(err)
	}
	if !v.Assigned() || v.Value() != 3 {
		t.Fatal("assignment failed")
	}
	if len(st.Vars()) != 1 {
		t.Fatal("Vars() wrong")
	}
}

func TestStoreNewVarClones(t *testing.T) {
	st := NewStore()
	dom := NewDomainRange(0, 3)
	v := st.NewVar("x", dom)
	dom.Remove(2)
	if !v.Domain().Contains(2) {
		t.Fatal("NewVar did not clone the domain")
	}
}

func TestStoreNewVarPanics(t *testing.T) {
	st := NewStore()
	empty := NewDomainRange(0, 0)
	empty.Remove(0)
	for name, f := range map[string]func(){
		"nil":   func() { st.NewVar("x", nil) },
		"empty": func() { st.NewVar("x", empty) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s domain accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestStoreAssignOutOfDomain(t *testing.T) {
	st := NewStore()
	v := st.NewVarRange("x", 1, 5)
	if err := st.Assign(v, 9); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Assign(9) err = %v", err)
	}
}

func TestStorePushPopRestoresDomains(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)

	st.Push()
	if err := st.SetMin(x, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Assign(y, 2); err != nil {
		t.Fatal(err)
	}
	st.Push()
	if err := st.SetMax(x, 6); err != nil {
		t.Fatal(err)
	}
	if x.Min() != 5 || x.Max() != 6 || y.Value() != 2 {
		t.Fatal("mutations not visible")
	}
	st.Pop()
	if x.Max() != 9 || x.Min() != 5 {
		t.Fatalf("inner Pop wrong: x=%v", x)
	}
	st.Pop()
	if x.Min() != 0 || x.Max() != 9 || y.Size() != 10 {
		t.Fatalf("outer Pop wrong: x=%v y=%v", x, y)
	}
}

func TestStorePopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStore().Pop()
}

func TestStoreFailureClearsOnPop(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 3)
	st.Push()
	// Empty the domain: failure.
	err := st.SetMin(x, 10)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected inconsistency, got %v", err)
	}
	if st.Propagate() == nil {
		t.Fatal("Propagate after failure should fail")
	}
	st.Pop()
	if err := st.Propagate(); err != nil {
		t.Fatalf("Propagate after Pop: %v", err)
	}
	if x.Size() != 4 {
		t.Fatal("domain not restored")
	}
}

func TestStorePropagationWakesWatchers(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	y := st.NewVarRange("y", 0, 9)
	p := &countingProp{}
	st.Post(p, x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 1 {
		t.Fatalf("initial run count = %d, want 1", p.runs)
	}
	// Changing y does not wake p.
	if err := st.Assign(y, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 1 {
		t.Fatalf("unwatched change woke propagator (runs=%d)", p.runs)
	}
	// Changing x wakes p.
	if err := st.Assign(x, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 2 {
		t.Fatalf("watched change did not wake propagator (runs=%d)", p.runs)
	}
}

func TestStorePropagationFixpoint(t *testing.T) {
	st := NewStore()
	a := st.NewVarRange("a", 3, 10)
	b := st.NewVarRange("b", 0, 10)
	c := st.NewVarRange("c", 0, 7)
	// a <= b <= c: b's bounds move twice, so a <= b must wake again
	// after b <= c has run.
	LessEq(st, a, b)
	LessEq(st, b, c)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Var{a, b, c} {
		if v.Min() != 3 || v.Max() != 7 {
			t.Fatalf("fixpoint %v %v %v, want every bound [3,7]", a, b, c)
		}
	}
	// Raising a above c's new bound is only detected by propagating
	// along the chain.
	if err := st.SetMin(a, 6); err != nil {
		t.Fatal(err)
	}
	if err := st.SetMax(c, 5); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("infeasible chain not detected: %v", err)
	}
}

func TestStoreScheduleHandle(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	p := &countingProp{}
	h := st.Post(p, x)
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	st.Schedule(h)
	st.Schedule(h) // dedup: only one queued run
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 2 {
		t.Fatalf("runs = %d, want 2", p.runs)
	}
	if st.Stats() < 2 {
		t.Fatal("Stats not counting")
	}
}

func TestStoreFilterDomainSharing(t *testing.T) {
	st := NewStore()
	x := st.NewVarRange("x", 0, 9)
	st.Push()
	// A no-op filter must not trail (copy-on-write probe).
	before := len(st.trail)
	if err := st.FilterDomain(x, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(st.trail) != before {
		t.Fatal("no-op FilterDomain trailed a domain")
	}
	if err := st.FilterDomain(x, func(v int) bool { return v < 5 }); err != nil {
		t.Fatal(err)
	}
	if len(st.trail) != before+1 {
		t.Fatal("mutating FilterDomain did not trail")
	}
	st.Pop()
	if x.Size() != 10 {
		t.Fatal("Pop did not restore filtered domain")
	}
}

// TestRemoveRowsMatchesBruteForce drives RemoveRows with random rows —
// starts below, inside and above a universe whose base is off a word
// boundary, offsets and lengths that cut words, bits past Len — and
// compares against removing value Start+j for every set bit Off+j,
// j < Len. A row set that hits nothing must leave the domain shared.
func TestRemoveRowsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		lo := rng.Intn(200) - 100
		var vals []int
		for v, hi := lo, lo+1+rng.Intn(300); v < hi; v++ {
			if rng.Intn(3) > 0 {
				vals = append(vals, v)
			}
		}
		vals = append(vals, lo)
		st := NewStore()
		v := st.NewVar("v", NewDomainValues(vals...))
		want := map[int]bool{}
		for _, x := range vals {
			want[x] = true
		}
		rows := make([]BitRow, 1+rng.Intn(4))
		for i := range rows {
			r := &rows[i]
			r.Bits = make([]uint64, 1+rng.Intn(3))
			for w := range r.Bits {
				r.Bits[w] = rng.Uint64() & rng.Uint64()
			}
			r.Start = lo - 80 + rng.Intn(460)
			r.Off = rng.Intn(64 * len(r.Bits))
			r.Len = rng.Intn(64*len(r.Bits) - r.Off + 8)
			for j := 0; j < r.Len; j++ {
				if b := r.Off + j; b < 64*len(r.Bits) && r.Bits[b>>6]&(1<<uint(b&63)) != 0 {
					delete(want, r.Start+j)
				}
			}
		}
		st.Push()
		before, n0 := v.Domain(), v.Size()
		err := st.RemoveRows(v, rows)
		if (err != nil) != (len(want) == 0) {
			t.Fatalf("iter %d: err %v with %d values left", iter, err, len(want))
		}
		if len(want) == 0 {
			continue
		}
		if v.Size() != len(want) {
			t.Fatalf("iter %d: size %d, brute force %d", iter, v.Size(), len(want))
		}
		for x := range want {
			if !v.Domain().Contains(x) {
				t.Fatalf("iter %d: %d removed, brute force keeps it", iter, x)
			}
		}
		if unchanged := len(want) == n0; unchanged != (v.Domain() == before) {
			t.Fatalf("iter %d: unchanged=%v but domain shared=%v", iter, unchanged, v.Domain() == before)
		}
	}
}

// TestPooledDomainsMatchCloningReference runs random Push / mutate /
// Pop sequences on a store, which recycles popped domains, and on a
// reference that clones a fresh copy of every domain at each Push. The
// two must agree after every step, and no recycled buffer may alias a
// live domain, a trailed one, or another spare.
func TestPooledDomainsMatchCloningReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for run := 0; run < 40; run++ {
		st := NewStore()
		var ref [][]*Domain // ref[level][var]
		var root []*Domain
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			lo := rng.Intn(60) - 30
			hi := lo + rng.Intn(200)
			st.NewVarRange("v", lo, hi)
			root = append(root, NewDomainRange(lo, hi))
		}
		ref = append(ref, root)
		for step := 0; step < 400; step++ {
			cur := ref[len(ref)-1]
			switch op := rng.Intn(10); {
			case op == 0:
				st.Push()
				next := make([]*Domain, len(cur))
				for i, d := range cur {
					next[i] = d.Clone()
				}
				ref = append(ref, next)
			case op == 1 && len(ref) > 1:
				st.Pop()
				ref = ref[:len(ref)-1]
			default:
				i := rng.Intn(len(cur))
				v, d := st.Vars()[i], cur[i]
				if d.Size() < 2 {
					continue
				}
				val := d.Min() + rng.Intn(d.Max()-d.Min()+1)
				if op == 2 {
					val = d.Min() // keeps the domain non-empty under RemoveAbove
				}
				if op == 3 {
					val = d.Max() // and under RemoveBelow
				}
				rows := []BitRow{{Start: val - 40, Bits: []uint64{rng.Uint64() & rng.Uint64()}, Len: 64}}
				trial := d.Clone()
				var err error
				switch op {
				case 2:
					trial.RemoveAbove(val)
					err = st.SetMax(v, val)
				case 3:
					trial.RemoveBelow(val)
					err = st.SetMin(v, val)
				case 4:
					trial.Remove(val)
					err = st.Remove(v, val)
				case 5:
					if !trial.Contains(val) {
						continue
					}
					trial.KeepOnly(val)
					err = st.Assign(v, val)
				case 6, 7:
					odd := func(x int) bool { return x&1 != 0 || x == val }
					trial.Filter(odd)
					err = st.FilterDomain(v, odd)
				default:
					trial.removeRows(rows, false)
					if trial.Empty() {
						continue
					}
					err = st.RemoveRows(v, rows)
				}
				if err != nil {
					t.Fatalf("run %d step %d: op %d on %v: %v", run, step, op, d, err)
				}
				cur[i] = trial
			}
			checkPooled(t, st, ref[len(ref)-1], run, step)
		}
	}
}

// checkPooled compares every domain of st with want and checks that
// the live domains, the trailed ones and the spares are pairwise
// distinct buffers.
func checkPooled(t *testing.T, st *Store, want []*Domain, run, step int) {
	t.Helper()
	owner := map[*uint64]string{}
	claim := func(d *Domain, who string) {
		if prev, ok := owner[&d.words[0]]; ok {
			t.Fatalf("run %d step %d: %s shares its buffer with %s", run, step, who, prev)
		}
		owner[&d.words[0]] = who
	}
	for i, v := range st.Vars() {
		d := v.Domain()
		if !d.Equal(want[i]) || d.Size() != want[i].Size() ||
			(d.Size() > 0 && (d.Min() != want[i].Min() || d.Max() != want[i].Max())) {
			t.Fatalf("run %d step %d: var %d is %v, reference %v", run, step, i, d, want[i])
		}
		claim(d, "a live domain")
		for _, s := range v.spare {
			claim(s, "a spare")
		}
	}
	for _, e := range st.trail {
		claim(e.dom, "a trailed domain")
	}
}
