package csp

import (
	"testing"
)

// emptied returns a domain over d's universe with every value removed.
// An empty domain arises only from pruning, so tests construct one the
// same way the solver does.
func emptied(d *Domain) *Domain {
	e := d.Clone()
	e.Filter(func(int) bool { return false })
	return e
}

func TestDomainUnionIntoEmpty(t *testing.T) {
	d := emptied(NewDomainRange(0, 9))
	o := NewDomainValues(2, 5, 7)
	if !d.Union(o) {
		t.Fatal("union into empty domain reported no change")
	}
	if d.Size() != 3 || d.Min() != 2 || d.Max() != 7 {
		t.Fatalf("union into empty wrong: %v", d)
	}
	if !d.Equal(NewDomainValues(2, 5, 7)) {
		t.Fatalf("union into empty: got %v", d)
	}
}

func TestDomainUnionOfEmptyArgument(t *testing.T) {
	d := NewDomainValues(1, 4)
	if d.Union(emptied(NewDomainRange(0, 9))) {
		t.Fatal("union with empty argument reported a change")
	}
	if !d.Equal(NewDomainValues(1, 4)) {
		t.Fatalf("union with empty argument mutated receiver: %v", d)
	}
}

func TestDomainUnionSingleValue(t *testing.T) {
	d := NewDomainRange(0, 9)
	d.KeepOnly(3)
	o := NewDomainRange(0, 9)
	o.KeepOnly(8)
	if !d.Union(o) {
		t.Fatal("single-value union reported no change")
	}
	if d.Size() != 2 || d.Min() != 3 || d.Max() != 8 {
		t.Fatalf("single-value union wrong: %v", d)
	}
	// Unioning a subset back in is a no-op.
	if d.Union(o) {
		t.Fatal("re-union of subset reported a change")
	}
}

func TestDomainUnionMergesAdjacentIntervals(t *testing.T) {
	// Two halves of one universe that touch at 4/5: the union must be
	// the full contiguous range with correct cached bounds and size.
	d := NewDomainRange(0, 9)
	d.RemoveAbove(4) // {0..4}
	o := NewDomainRange(0, 9)
	o.RemoveBelow(5) // {5..9}
	if !d.Union(o) {
		t.Fatal("adjacent-interval union reported no change")
	}
	if !d.Equal(NewDomainRange(0, 9)) {
		t.Fatalf("adjacent-interval union wrong: %v", d)
	}
	if d.Size() != 10 || d.Min() != 0 || d.Max() != 9 {
		t.Fatalf("adjacent-interval union bounds wrong: size=%d min=%d max=%d",
			d.Size(), d.Min(), d.Max())
	}
}

func TestDomainUnionOutsideUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("union outside the universe did not panic")
		}
	}()
	d := NewDomainRange(0, 9)
	d.Union(NewDomainValues(100))
}

func TestDomainBisectSingleValue(t *testing.T) {
	d := NewDomainRange(0, 9)
	d.KeepOnly(7)
	lo, hi := d.Bisect()
	if lo.Size() != 1 || !lo.Contains(7) {
		t.Fatalf("lo half of singleton bisect wrong: %v", lo)
	}
	if !hi.Empty() {
		t.Fatalf("hi half of singleton bisect not empty: %v", hi)
	}
	// Bisect must not mutate the receiver.
	if d.Size() != 1 || !d.Contains(7) {
		t.Fatalf("bisect mutated receiver: %v", d)
	}
}

func TestDomainBisectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bisect of empty domain did not panic")
		}
	}()
	emptied(NewDomainRange(0, 9)).Bisect()
}

func TestDomainBisectSparseHalvesPartition(t *testing.T) {
	// The midpoint (5) falls in a hole of the sparse set; each value
	// must land in exactly one half and the halves re-union to the
	// original.
	d := NewDomainValues(0, 1, 9, 10)
	lo, hi := d.Bisect()
	if lo.Size()+hi.Size() != d.Size() {
		t.Fatalf("halves do not partition: lo=%v hi=%v", lo, hi)
	}
	if lo.Max() >= hi.Min() {
		t.Fatalf("halves overlap or misorder: lo=%v hi=%v", lo, hi)
	}
	re := lo.Clone()
	re.Union(hi)
	if !re.Equal(d) {
		t.Fatalf("halves do not re-union to original: %v vs %v", re, d)
	}
}
