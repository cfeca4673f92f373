package seen

import (
	"testing"

	"hetsyslog/internal/raceflag"
)

// TestAgainAdmitsOnSecondSight: a hash is new on its first offer and seen
// on every later one, until the set empties.
func TestAgainAdmitsOnSecondSight(t *testing.T) {
	s := New(1024)
	for h := uint64(0); h < 500; h++ {
		if s.Again(h * 7919) {
			t.Fatalf("hash %d reported seen on its first offer", h*7919)
		}
	}
	for h := uint64(0); h < 500; h++ {
		if !s.Again(h*7919) || !s.Again(h*7919) {
			t.Fatalf("hash %d not reported seen on a later offer", h*7919)
		}
	}
	if s.n != 500 {
		t.Errorf("set holds %d hashes, want 500", s.n)
	}
	s.Reset()
	if s.n != 0 || s.Again(7919) {
		t.Error("Reset kept a hash")
	}
}

// TestBoundedAndAllocationFree offers far more distinct hashes than the set
// holds: its table never outgrows the slots it was given, it empties when
// three quarters are taken, and once grown it allocates nothing.
func TestBoundedAndAllocationFree(t *testing.T) {
	const slots = 4096
	s := New(slots - 100) // rounded up to 4096
	for h := uint64(1); h <= 3*slots; h++ {
		s.Again(h)
		if len(s.slots) > slots || s.n > 3*slots/4 {
			t.Fatalf("after %d offers: %d slots, %d hashes; want <= %d and <= %d", h, len(s.slots), s.n, slots, 3*slots/4)
		}
	}
	if len(s.slots) != slots {
		t.Fatalf("table grew to %d slots, want %d", len(s.slots), slots)
	}
	// The last hashes offered are held; the set emptied before them.
	if !s.Again(3*slots) || s.Again(1) {
		t.Error("a full set should keep the hashes offered since it emptied, and only those")
	}
	if raceflag.Enabled {
		return
	}
	next := uint64(1 << 40)
	if n := testing.AllocsPerRun(1000, func() {
		s.Again(next)
		next++
	}); n != 0 {
		t.Errorf("Again on a grown set allocates %v times per call, want 0", n)
	}
}

// TestZeroHash: 0 marks a free slot, so the zero hash must still be held.
func TestZeroHash(t *testing.T) {
	s := New(0)
	if s.Again(0) || !s.Again(0) {
		t.Error("the zero hash is not remembered")
	}
}

// TestZeroValue: the zero Set is a set of the minimum size.
func TestZeroValue(t *testing.T) {
	var s Set
	for h := uint64(1); h <= 1000; h++ {
		if s.Again(h) {
			t.Fatalf("hash %d reported seen on its first offer", h)
		}
		if !s.Again(h) {
			t.Fatalf("hash %d forgotten at once", h)
		}
	}
	if len(s.slots) != minSlots {
		t.Errorf("zero set grew to %d slots, want %d", len(s.slots), minSlots)
	}
}
