package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(70, 3) // spans two words per row
	if b.W() != 70 || b.H() != 3 {
		t.Fatalf("dimensions = %dx%d", b.W(), b.H())
	}
	b.Set(0, 0, true)
	b.Set(69, 2, true)
	b.Set(64, 1, true)
	if !b.Get(0, 0) || !b.Get(69, 2) || !b.Get(64, 1) {
		t.Fatal("set bits not readable")
	}
	if b.Get(1, 0) || b.Get(63, 1) {
		t.Fatal("unset bits read as set")
	}
	b.Set(64, 1, false)
	if b.Get(64, 1) {
		t.Fatal("clear failed")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(4, 4)
	b.Set(-1, 0, true)
	b.Set(0, -1, true)
	b.Set(4, 0, true)
	b.Set(0, 4, true)
	if b.Count() != 0 {
		t.Fatal("out-of-range Set modified bitmap")
	}
	if b.Get(-1, -1) || b.Get(4, 4) {
		t.Fatal("out-of-range Get returned true")
	}
}

func TestBitmapNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitmap(-1, 2) did not panic")
		}
	}()
	NewBitmap(-1, 2)
}

func TestBitmapSetRectClipped(t *testing.T) {
	b := NewBitmap(5, 5)
	b.SetRect(RectXYWH(3, 3, 10, 10), true)
	if b.Count() != 4 {
		t.Fatalf("clipped SetRect count = %d, want 4", b.Count())
	}
	b.SetRect(RectXYWH(3, 3, 1, 1), false)
	if b.Get(3, 3) || b.Count() != 3 {
		t.Fatal("SetRect clear failed")
	}
}

func TestBitmapAnyAt(t *testing.T) {
	b := NewBitmap(8, 8)
	b.Set(4, 4, true)
	shape := []Point{{0, 0}, {1, 0}, {0, 1}}
	if !b.AnyAt(shape, Pt(4, 4)) {
		t.Error("AnyAt should hit (4,4)")
	}
	if !b.AnyAt(shape, Pt(3, 4)) {
		t.Error("AnyAt should hit via (1,0) offset")
	}
	if b.AnyAt(shape, Pt(5, 5)) {
		t.Error("AnyAt false positive")
	}
	if b.AnyAt(shape, Pt(-10, -10)) {
		t.Error("AnyAt out of range should be false")
	}
}

func TestBitmapBooleanOps(t *testing.T) {
	a := NewBitmap(10, 2)
	b := NewBitmap(10, 2)
	a.Set(1, 0, true)
	b.Set(2, 1, true)
	if a.Intersects(b) {
		t.Fatal("disjoint Intersects true")
	}
	a.Or(b)
	if !a.Get(2, 1) || a.Count() != 2 {
		t.Fatal("Or failed")
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects after Or false")
	}
	a.AndNot(b)
	if a.Get(2, 1) || a.Count() != 1 {
		t.Fatal("AndNot failed")
	}
	a.Or(b)
	b.Set(7, 0, true)
	a.And(b)
	if !a.Get(2, 1) || a.Get(1, 0) || a.Get(7, 0) || a.Count() != 1 {
		t.Fatal("And failed")
	}
}

// SetPointsAt must paint exactly what SetPoints paints for the
// translated points, including anchors that push the footprint past
// each edge (clipped tiles are ignored) and negative anchors.
func TestBitmapSetPointsAtMatchesTranslated(t *testing.T) {
	shape := []Point{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {2, 2}, {65, 1}}
	for _, tc := range []struct {
		name string
		at   Point
	}{
		{"origin", Pt(0, 0)},
		{"interior", Pt(3, 2)},
		{"negative", Pt(-1, -1)},
		{"clip-left", Pt(-2, 3)},
		{"clip-bottom", Pt(4, -2)},
		{"clip-right", Pt(68, 3)},
		{"clip-top", Pt(5, 6)},
		{"clip-all", Pt(-100, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			moved := make([]Point, len(shape))
			for i, p := range shape {
				moved[i] = p.Add(tc.at)
			}
			for _, v := range []bool{true, false} {
				got, want := NewBitmap(70, 8), NewBitmap(70, 8)
				if !v {
					got.SetRect(got.Bounds(), true)
					want.SetRect(want.Bounds(), true)
				}
				got.SetPointsAt(shape, tc.at, v)
				want.SetPoints(moved, v)
				if got.String() != want.String() {
					t.Fatalf("v=%v: SetPointsAt\n%s\nwant\n%s", v, got, want)
				}
			}
		})
	}
}

// The footprint primitives sit on every solver and placer hot path and
// must never allocate.
func TestBitmapFootprintOpsDoNotAllocate(t *testing.T) {
	b := NewBitmap(70, 8)
	shape := []Point{{0, 0}, {1, 0}, {0, 1}, {64, 2}}
	at := Pt(3, 2)
	if n := testing.AllocsPerRun(100, func() {
		b.SetPointsAt(shape, at, true)
		b.SetPointsAt(shape, at, false)
	}); n != 0 {
		t.Errorf("SetPointsAt allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.AnyAt(shape, at) }); n != 0 {
		t.Errorf("AnyAt allocates %v per run", n)
	}
}

func TestBitmapDimensionMismatchPanics(t *testing.T) {
	a := NewBitmap(4, 4)
	b := NewBitmap(5, 4)
	for name, f := range map[string]func(){
		"Or":         func() { a.Or(b) },
		"And":        func() { a.And(b) },
		"AndNot":     func() { a.AndNot(b) },
		"Intersects": func() { a.Intersects(b) },
		"CopyFrom":   func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBitmapMaxSetY(t *testing.T) {
	b := NewBitmap(6, 6)
	if b.MaxSetY() != -1 {
		t.Fatal("empty MaxSetY != -1")
	}
	b.Set(2, 0, true)
	b.Set(5, 3, true)
	if got := b.MaxSetY(); got != 3 {
		t.Fatalf("MaxSetY = %d, want 3", got)
	}
}

func TestBitmapCountRow(t *testing.T) {
	b := NewBitmap(100, 3)
	for x := 0; x < 100; x += 2 {
		b.Set(x, 1, true)
	}
	if got := b.CountRow(1); got != 50 {
		t.Fatalf("CountRow(1) = %d, want 50", got)
	}
	if b.CountRow(0) != 0 || b.CountRow(-1) != 0 || b.CountRow(3) != 0 {
		t.Fatal("CountRow out-of-range not zero")
	}
}

func TestBitmapCloneIndependent(t *testing.T) {
	a := NewBitmap(8, 8)
	a.Set(3, 3, true)
	c := a.Clone()
	c.Set(4, 4, true)
	if a.Get(4, 4) {
		t.Fatal("Clone aliases original")
	}
	a.Clear()
	if !c.Get(3, 3) {
		t.Fatal("Clear leaked into clone")
	}
}

func TestBitmapString(t *testing.T) {
	b := NewBitmap(3, 2)
	b.Set(0, 0, true)
	b.Set(2, 1, true)
	want := "..#\n#.."
	if got := b.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// Property: Count equals the number of distinct set points.
func TestBitmapCountMatchesSetPoints(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(16, 16)
		seen := map[Point]bool{}
		for i := 0; i < int(n); i++ {
			p := Pt(rng.Intn(16), rng.Intn(16))
			b.Set(p.X, p.Y, true)
			seen[p] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AnyInRect agrees with a pointwise scan.
func TestBitmapAnyInRectPointwise(t *testing.T) {
	f := func(seed int64, rx, ry int8, rw, rh uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(12, 12)
		for i := 0; i < 10; i++ {
			b.Set(rng.Intn(12), rng.Intn(12), true)
		}
		r := RectXYWH(int(rx)%12, int(ry)%12, int(rw)%8, int(rh)%8)
		want := false
		for _, p := range r.Points() {
			if b.Get(p.X, p.Y) {
				want = true
			}
		}
		return b.AnyInRect(r) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
