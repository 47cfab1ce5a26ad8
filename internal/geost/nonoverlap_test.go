package geost

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/fabric"
	"repro/internal/grid"
)

// shapeOf builds a shape from rows of '#' (occupied) and '.' (hole),
// row 0 at y = 0, valid everywhere in a spaceW×spaceH space.
func shapeOf(rows []string, spaceW, spaceH int) ShapeGeom {
	g := ShapeGeom{H: len(rows), Valid: allValid(spaceW, spaceH)}
	for y, row := range rows {
		g.W = max(g.W, len(row))
		for x, c := range row {
			if c == '#' {
				g.Points = append(g.Points, grid.Pt(x, y))
			}
		}
	}
	g.Hist[fabric.CLB] = len(g.Points)
	return g
}

// checkForbidden asserts that forbid removes from an object with the
// given shapes exactly the candidates whose footprint meets g anchored
// at (fx, fy) under grid.Bitmap.AnyAt — through the cached mask of a
// fixed shape and through the uncached footprint of the same cells —
// and that an assigned object fails exactly on a colliding value. The
// other object's anchors are thinned to a sparse pattern that drops
// value 0, so its domain starts off a word boundary and has holes.
func checkForbidden(t *testing.T, w, h int, g ShapeGeom, shapes []ShapeGeom, fx, fy int) {
	t.Helper()
	shapes = slices.Clone(shapes)
	for i := range shapes {
		s := &shapes[i]
		s.Valid = grid.NewBitmap(w, h)
		for y := 0; y <= h-s.H; y++ {
			for x := 0; x <= w-s.W; x++ {
				s.Valid.Set(x, y, (x*7+y*3)%5 != 0 || (x == w-s.W && y == h-s.H))
			}
		}
	}
	st := csp.NewStore()
	k := New(st, w, h)
	f, err := k.AddObject("fixed", []ShapeGeom{g})
	if err != nil {
		t.Fatal(err)
	}
	o, err := k.AddObject("other", shapes)
	if err != nil {
		t.Fatal(err)
	}
	blocked := grid.NewBitmap(w, h)
	blocked.SetPointsAt(g.Points, grid.Pt(fx, fy), true)
	cands := o.Place.Domain().Values()
	var want []int
	for _, v := range cands {
		sid, x, y := o.Decode(v)
		if !blocked.AnyAt(o.Shapes[sid].Points, grid.Pt(x, y)) {
			want = append(want, v)
		}
	}
	cached := &footprint{pts: g.Points, w: g.W, h: g.H, x: fx, y: fy, shape: f.shape0}
	uncached := &footprint{pts: g.Points, w: g.W, h: g.H, x: fx, y: fy, shape: -1}
	for _, fp := range []*footprint{cached, uncached} {
		st.Push()
		err := k.forbid(st, fp, o)
		switch {
		case len(want) == 0 && err == nil:
			t.Fatalf("%dx%d fixed at (%d,%d) shape %d: every candidate collides but forbid kept %v",
				w, h, fx, fy, fp.shape, o.Place.Domain())
		case len(want) > 0 && err != nil:
			t.Fatalf("%dx%d fixed at (%d,%d) shape %d: %v", w, h, fx, fy, fp.shape, err)
		case len(want) > 0 && !slices.Equal(o.Place.Domain().Values(), want):
			t.Fatalf("%dx%d fixed at (%d,%d) shape %d: kept %v, brute force %v",
				w, h, fx, fy, fp.shape, o.Place.Domain().Values(), want)
		}
		st.Pop()
	}
	for _, v := range cands {
		st.Push()
		if err := st.Assign(o.Place, v); err != nil {
			t.Fatal(err)
		}
		_, keep := slices.BinarySearch(want, v)
		if err := k.forbid(st, cached, o); (err == nil) != keep {
			sid, x, y := o.Decode(v)
			t.Fatalf("%dx%d fixed at (%d,%d): assigned shape %d at (%d,%d) err=%v, brute force keeps=%v",
				w, h, fx, fy, sid, x, y, err, keep)
		}
		st.Pop()
	}
}

// edgeAnchors returns the anchors of a gw×gh shape on the border of
// its anchor range in a w×h space: every fixed position touching one
// of the four edges.
func edgeAnchors(w, h, gw, gh int) []grid.Point {
	var out []grid.Point
	for y := 0; y <= h-gh; y++ {
		for x := 0; x <= w-gw; x++ {
			if x == 0 || y == 0 || x == w-gw || y == h-gh {
				out = append(out, grid.Pt(x, y))
			}
		}
	}
	return out
}

// comb returns a rows×width shape whose even columns are full and
// whose odd columns hold only the top cell.
func comb(width, rows int) []string {
	top := strings.Repeat("#", width)
	body := strings.Repeat("#.", width/2+1)[:width]
	out := []string{top}
	for i := 1; i < rows; i++ {
		out = append(out, body)
	}
	return out
}

func TestForbiddenAnchorsMatchBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w, h   int
		fixed  []string
		others [][]string
	}{
		{
			name:   "holes",
			w:      9,
			h:      7,
			fixed:  []string{"###", "#.#", "###"},
			others: [][]string{{"#"}, {"#..", "###"}, {"#.#", ".#.", "#.#"}, {".#.", "###", ".#."}},
		},
		{
			name:   "mask wider than 64 in a region 72 wide",
			w:      72,
			h:      6,
			fixed:  comb(40, 3),
			others: [][]string{{"#.#"}, comb(30, 2)},
		},
		{
			name:   "mask wider than 128 in a region wider than 128",
			w:      131,
			h:      5,
			fixed:  comb(70, 2),
			others: [][]string{{"##"}, comb(65, 3)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := shapeOf(tc.fixed, tc.w, tc.h)
			var shapes []ShapeGeom
			for _, rows := range tc.others {
				shapes = append(shapes, shapeOf(rows, tc.w, tc.h))
			}
			for _, at := range edgeAnchors(tc.w, tc.h, g.W, g.H) {
				checkForbidden(t, tc.w, tc.h, g, shapes, at.X, at.Y)
			}
		})
	}
}

// randomShape returns a shape of random cells in a box of at most
// w×h, with at least one cell.
func randomShape(rng *rand.Rand, w, h, spaceW, spaceH int) ShapeGeom {
	sw, sh := 1+rng.Intn(w), 1+rng.Intn(h)
	rows := make([]string, sh)
	for y := range rows {
		b := []byte(strings.Repeat(".", sw))
		for x := range b {
			if rng.Intn(5) < 3 {
				b[x] = '#'
			}
		}
		rows[y] = string(b)
	}
	rows[rng.Intn(sh)] = strings.Repeat("#", sw)
	return shapeOf(rows, spaceW, spaceH)
}

// FuzzForbiddenAnchors checks forbidden-anchor rows against the
// brute-force footprint test on random spaces up to 140 wide, random
// shapes with holes up to the space's size, and random fixed anchors.
func FuzzForbiddenAnchors(f *testing.F) {
	f.Add(uint8(8), uint8(6), uint8(0), uint8(3), int64(1))
	f.Add(uint8(71), uint8(5), uint8(200), uint8(0), int64(2))
	f.Add(uint8(130), uint8(4), uint8(255), uint8(255), int64(3))
	f.Fuzz(func(t *testing.T, w, h, fx, fy uint8, seed int64) {
		W, H := 1+int(w)%140, 1+int(h)%10
		rng := rand.New(rand.NewSource(seed))
		g := randomShape(rng, W, H, W, H)
		shapes := make([]ShapeGeom, 1+rng.Intn(3))
		for i := range shapes {
			shapes[i] = randomShape(rng, W, H, W, H)
		}
		checkForbidden(t, W, H, g, shapes, int(fx)%(W-g.W+1), int(fy)%(H-g.H+1))
	})
}

// keptAgainst returns o's candidates that avoid every fixed object.
func keptAgainst(o *Object, fixed ...*Object) []int {
	blocked := grid.NewBitmap(o.k.w, o.k.h)
	for _, f := range fixed {
		sid, x, y := f.Placement()
		blocked.SetPointsAt(f.Shapes[sid].Points, grid.Pt(x, y), true)
	}
	var out []int
	for _, v := range o.Place.Domain().Values() {
		sid, x, y := o.Decode(v)
		if !blocked.AnyAt(o.Shapes[sid].Points, grid.Pt(x, y)) {
			out = append(out, v)
		}
	}
	return out
}

// TestCloneAppliedPrefixPopsToApplyLevel fixes an object at the root
// without propagating, applies it one level down, pops that level and
// wakes the propagator again: the root object must be applied again,
// because the prefix was trailed at the level that applied it, not at
// the level that assigned it.
func TestCloneAppliedPrefixPopsToApplyLevel(t *testing.T) {
	st := csp.NewStore()
	k := New(st, 6, 4)
	var objs []*Object
	for _, name := range []string{"a", "b", "c"} {
		o, err := k.AddObject(name, []ShapeGeom{rectGeom(2, 2, 6, 4)})
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	a, b, c := objs[0], objs[1], objs[2]
	k.PostNonOverlap()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	full := b.CandidateCount()
	if err := st.Assign(a.Place, k.encode(0, 0, 0)); err != nil {
		t.Fatal(err)
	}

	st.Push()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	if want := keptAgainst(b, a); b.CandidateCount() != len(want) || len(want) == full {
		t.Fatalf("b has %d candidates after applying a, want %d of %d", b.CandidateCount(), len(want), full)
	}
	st.Pop()
	if b.CandidateCount() != full || !a.Assigned() {
		t.Fatalf("Pop left b with %d of %d candidates (a assigned: %v)", b.CandidateCount(), full, a.Assigned())
	}

	st.Push()
	if err := st.Assign(c.Place, k.encode(0, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	want := keptAgainst(b, a, c)
	if got := b.Place.Domain().Values(); !slices.Equal(got, want) {
		t.Fatalf("after Pop and a new branch b = %v, want %v (pruned against a and c)", got, want)
	}
	st.Pop()
}

// TestCloneMidSearchPrunesLikeOriginal clones a store two levels into
// a search, with objects already applied, and replays the same
// branches on the original and the clone: every domain must agree
// after every branch, and both must count the same solutions below.
func TestCloneMidSearchPrunesLikeOriginal(t *testing.T) {
	const W, H = 7, 5
	st := csp.NewStore()
	k := New(st, W, H)
	shapes := [][]ShapeGeom{
		{rectGeom(2, 2, W, H), rectGeom(4, 1, W, H)},
		{rectGeom(3, 1, W, H), rectGeom(1, 3, W, H)},
		{shapeOf([]string{"##", "#."}, W, H)},
		{rectGeom(2, 1, W, H), shapeOf([]string{"#.#", "###"}, W, H)},
		{rectGeom(1, 1, W, H)},
	}
	for i, s := range shapes {
		if _, err := k.AddObject(string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	k.PostNonOverlap()
	k.PostCompulsoryNonOverlap()
	if err := st.Propagate(); err != nil {
		t.Fatal(err)
	}
	objs := k.Objects()
	for _, o := range []*Object{objs[3], objs[1]} {
		st.Push()
		if err := st.Assign(o.Place, o.Place.Min()); err != nil {
			t.Fatal(err)
		}
		if err := st.Propagate(); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := st.Clone()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(s *csp.Store) [][]int {
		out := make([][]int, len(s.Vars()))
		for i, v := range s.Vars() {
			out[i] = v.Domain().Values()
		}
		return out
	}
	same := func(ctx string) {
		t.Helper()
		a, b := snapshot(st), snapshot(cl)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: %s is %v on the original, %v on the clone", ctx, st.Vars()[i].Name(), a[i], b[i])
			}
		}
	}
	same("after Clone")
	for _, o := range []*Object{objs[0], objs[2], objs[4]} {
		for _, val := range o.Place.Domain().Values() {
			var errs [2]error
			for i, s := range []*csp.Store{st, cl} {
				s.Push()
				errs[i] = s.Assign(s.Vars()[o.Place.ID()], val)
				if errs[i] == nil {
					errs[i] = s.Propagate()
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("%s=%d: original err %v, clone err %v", o.Name, val, errs[0], errs[1])
			}
			if errs[0] == nil {
				same(o.Name + " branch")
			}
			st.Pop()
			cl.Pop()
			same(o.Name + " pop")
		}
	}
	count := func(s *csp.Store) int {
		vars := make([]*csp.Var, len(objs))
		for i, o := range objs {
			vars[i] = s.Vars()[o.Place.ID()]
		}
		res, err := csp.Solve(s, vars, csp.Options{}, func(*csp.Store) bool { return true })
		if err != nil || !res.Complete {
			t.Fatalf("Solve: %v %+v", err, res)
		}
		return res.Solutions
	}
	if a, b := count(st), count(cl); a != b || a == 0 {
		t.Fatalf("original counts %d solutions below the clone point, clone %d", a, b)
	}
}
