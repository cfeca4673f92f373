package trace

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "write", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "index", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "index", Start: 30, End: 60},  // overlaps span 2: union is 10..60
		{ID: 4, Parent: 1, Name: "index", Start: 90, End: 130}, // clipped to the parent: 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := SelfTimes(spans)
	want := map[int32]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSlowestMatchesChildrenByTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "route", Start: 100, End: 200},
		{ID: 2, Name: "serve", Start: 110, End: 150},
		{ID: 3, Name: "serve", Start: 112, End: 190},
		{ID: 4, Name: "route", Start: 300, End: 350},
		{ID: 5, Name: "serve", Start: 305, End: 330},
		{ID: 6, Name: "serve", Start: 50, End: 60}, // before any route: ignored
		{ID: 7, Name: "other", Start: 120, End: 199},
	}
	parents, slow := Slowest(spans, "route", "serve")
	if len(parents) != 2 || slow[0] != 78 || slow[1] != 25 {
		t.Fatalf("Slowest = %v %v, want [78 25]", parents, slow)
	}
}

func TestBudgetSharesSumToOneWithNamedResidual(t *testing.T) {
	order := []string{"syslog", "collector", "core", "store"}
	rows := Budget(2000, order, map[string]float64{"syslog": 300, "collector": 450, "core": 800, "store": 250})
	if len(rows) != 5 || rows[4].Layer != Residual {
		t.Fatalf("rows = %+v", rows)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Share
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("shares sum to %v, want 1 ± 0.02", sum)
	}
	if rows[4].NsPerRec != 200 || math.Abs(rows[4].Share-0.1) > 1e-12 {
		t.Errorf("residual = %+v, want 200 ns / 0.1", rows[4])
	}
	// Overlapping layers push the residual negative; the sum still holds.
	rows = Budget(1000, order, map[string]float64{"syslog": 600, "core": 700})
	sum = 0
	for _, r := range rows {
		sum += r.Share
	}
	if math.Abs(sum-1) > 1e-9 || rows[4].Share >= 0 {
		t.Errorf("overlap: sum %v residual %+v", sum, rows[4])
	}
}

func TestRecorderCapAndReserve(t *testing.T) {
	r := NewRecorder(3)
	t0 := time.Now()
	parent := r.Reserve("write", 0, 7, t0)
	child := r.Add("index", parent, 7, t0.Add(time.Millisecond), t0.Add(2*time.Millisecond))
	r.Finish(parent, t0.Add(3*time.Millisecond))
	open := r.Reserve("never-finished", 0, 8, t0)
	if id := r.Add("over-cap", 0, 9, t0, t0); id != 0 {
		t.Errorf("span past the cap got id %d", id)
	}
	spans, nDropped := r.Spans()
	if len(spans) != 2 || nDropped != 1 || open == 0 {
		t.Fatalf("spans = %+v dropped = %d", spans, nDropped)
	}
	if spans[1].ID != child || spans[1].Parent != parent || spans[0].Dur() != int64(3*time.Millisecond) {
		t.Errorf("spans = %+v", spans)
	}
}
