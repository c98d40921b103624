package trace_test

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/check"
	"repro/internal/sim"
	. "repro/internal/trace"
)

// boundaryTrace has one machine with three events chosen so every query
// below can land exactly on a start or end: [1h,2h) S3, [2h,3h) S4 (the
// two touch), and a zero-length event at 5h.
func boundaryTrace() *Trace {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(MkEvent(0, 1*time.Hour, 2*time.Hour, 3))
	tr.Add(MkEvent(0, 2*time.Hour, 3*time.Hour, 4))
	tr.Add(MkEvent(0, 5*time.Hour, 5*time.Hour, 5))
	return tr
}

// TestNextEventAfterBoundaries probes ts exactly at event starts and ends,
// asserting the indexed and linear forms agree on the half-open semantics:
// "at or after" includes ts == Start.
func TestNextEventAfterBoundaries(t *testing.T) {
	tr := boundaryTrace()
	ix := tr.BuildIndex()
	cases := []struct {
		ts        sim.Time
		wantStart sim.Time
		found     bool
	}{
		{0, 1 * time.Hour, true},
		{1*time.Hour - 1, 1 * time.Hour, true},
		{1 * time.Hour, 1 * time.Hour, true}, // exactly at a start: included
		{1*time.Hour + 1, 2 * time.Hour, true},
		{2 * time.Hour, 2 * time.Hour, true}, // start == previous end
		{3 * time.Hour, 5 * time.Hour, true}, // exactly at an end
		{5 * time.Hour, 5 * time.Hour, true}, // zero-length event at ts
		{5*time.Hour + 1, 0, false},
	}
	for _, c := range cases {
		le, lok := check.LinearNextEventAfter(tr, 0, c.ts)
		ie, iok := ix.NextEventAfter(0, c.ts)
		if lok != c.found || iok != c.found {
			t.Fatalf("NextEventAfter(%v): found linear=%v index=%v, want %v", c.ts, lok, iok, c.found)
		}
		if !c.found {
			continue
		}
		if le != ie {
			t.Errorf("NextEventAfter(%v): linear %+v != index %+v", c.ts, le, ie)
		}
		if le.Start != c.wantStart {
			t.Errorf("NextEventAfter(%v).Start = %v, want %v", c.ts, le.Start, c.wantStart)
		}
	}
}

// TestNextEventAfterTieBreak pins the divergence the differential driver
// exposed: with two events sharing a start time, the linear scan used to
// return whichever was stored first while the index always returns the
// earliest-ending one. Both must now agree regardless of storage order.
func TestNextEventAfterTieBreak(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	// Deliberately stored longest-first and never sorted.
	tr.Add(MkEvent(0, 1*time.Hour, 4*time.Hour, 3))
	tr.Add(MkEvent(0, 1*time.Hour, 2*time.Hour, 4))
	ix := tr.BuildIndex()
	le, _ := check.LinearNextEventAfter(tr, 0, 0)
	ie, _ := ix.NextEventAfter(0, 0)
	if le != ie {
		t.Fatalf("tie on Start: linear %+v != index %+v", le, ie)
	}
	if le.End != 2*time.Hour {
		t.Errorf("tie should resolve to the earliest end, got %+v", le)
	}
}

// TestAnyOverlapBoundaries checks the overlap semantics at exact interval
// endpoints for both the linear and indexed forms. A window ending exactly
// at an event start, or starting exactly at an event end, does not overlap.
// Degenerate intervals follow the instant convention of
// `e.Start < w.End && e.End > w.Start`: a zero-length event (or empty
// window) overlaps whatever strictly contains its instant, and nothing
// whose boundary it merely touches.
func TestAnyOverlapBoundaries(t *testing.T) {
	tr := boundaryTrace()
	ix := tr.BuildIndex()
	cases := []struct {
		w    sim.Window
		want bool
	}{
		{sim.Window{Start: 0, End: 1 * time.Hour}, false},                  // ends at event start
		{sim.Window{Start: 0, End: 1*time.Hour + 1}, true},                 // one instant inside
		{sim.Window{Start: 3 * time.Hour, End: 4 * time.Hour}, false},      // starts at event end
		{sim.Window{Start: 3*time.Hour - 1, End: 4 * time.Hour}, true},     // one instant before the end
		{sim.Window{Start: 2 * time.Hour, End: 2 * time.Hour}, false},      // empty window at an event boundary
		{sim.Window{Start: 90 * time.Minute, End: 90 * time.Minute}, true}, // empty window strictly inside an event
		{sim.Window{Start: 5 * time.Hour, End: 6 * time.Hour}, false},      // zero-length event at w.Start: excluded
		{sim.Window{Start: 4 * time.Hour, End: 5 * time.Hour}, false},      // zero-length event at w.End: excluded
		{sim.Window{Start: 4 * time.Hour, End: 5*time.Hour + 1}, true},     // zero-length event strictly inside
	}
	for _, c := range cases {
		if got := check.LinearAnyOverlap(tr, 0, c.w); got != c.want {
			t.Errorf("linear AnyOverlap(%v) = %v, want %v", c.w, got, c.want)
		}
		if got := ix.AnyOverlap(0, c.w); got != c.want {
			t.Errorf("indexed AnyOverlap(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

// TestCountInWindowBoundaries checks that event starts landing exactly on
// window edges follow [Start, End): a start at w.Start counts, a start at
// w.End does not. Zero-length events count like any other start.
func TestCountInWindowBoundaries(t *testing.T) {
	tr := boundaryTrace()
	ix := tr.BuildIndex()
	cases := []struct {
		w    sim.Window
		want int
	}{
		{sim.Window{Start: 1 * time.Hour, End: 2 * time.Hour}, 1}, // start on w.Start counts
		{sim.Window{Start: 0, End: 1 * time.Hour}, 0},             // start on w.End does not
		{sim.Window{Start: 1 * time.Hour, End: 2*time.Hour + 1}, 2},
		{sim.Window{Start: 5 * time.Hour, End: 5*time.Hour + 1}, 1}, // zero-length event
		{sim.Window{Start: 5 * time.Hour, End: 5 * time.Hour}, 0},   // empty window
	}
	for _, c := range cases {
		if got := check.LinearOccurrencesInWindow(tr, 0, c.w); got != c.want {
			t.Errorf("linear OccurrencesInWindow(%v) = %d, want %d", c.w, got, c.want)
		}
		if got := ix.CountInWindow(0, c.w); got != c.want {
			t.Errorf("indexed CountInWindow(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

// TestFirstOverlapBoundaries checks FirstOverlap at exact endpoints: an
// event ending exactly at w.Start is excluded, an event starting exactly
// at w.End is excluded, and an event already open at w.Start wins over a
// later one inside the window.
func TestFirstOverlapBoundaries(t *testing.T) {
	tr := boundaryTrace()
	ix := tr.BuildIndex()
	// Window opening mid-first-event: the open event wins.
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 90 * time.Minute, End: sim.Day}); !ok || e.Start != 1*time.Hour {
		t.Errorf("FirstOverlap(open event) = %+v, %v", e, ok)
	}
	// Window starting exactly at the S4 event's end: the S4 event is
	// excluded, and the zero-length 5h event — strictly inside — is the
	// first overlap per the instant convention.
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 3 * time.Hour, End: sim.Day}); !ok || e.Start != 5*time.Hour {
		t.Errorf("FirstOverlap([3h,day)) = %+v, %v, want the zero-length 5h event", e, ok)
	}
	// Window ending exactly at the first event's start: no overlap.
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 0, End: 1 * time.Hour}); ok {
		t.Errorf("FirstOverlap(window touching start) = %+v, want none", e)
	}
	// Window [2h, 3h): the S4 event starts exactly at w.Start.
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 2 * time.Hour, End: 3 * time.Hour}); !ok || e.State != 4 {
		t.Errorf("FirstOverlap([2h,3h)) = %+v, %v, want the S4 event", e, ok)
	}
}

// TestFirstOverlapZeroLengthShadow pins the indexed-query fix the fuzz
// harness exposed: a zero-length event sitting exactly at w.Start does not
// overlap the window, so FirstOverlap must neither return it nor let it
// shadow a genuine overlap later in the window.
func TestFirstOverlapZeroLengthShadow(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(MkEvent(0, 2*time.Hour, 2*time.Hour, 5)) // instant event at w.Start
	tr.Add(MkEvent(0, 3*time.Hour, 4*time.Hour, 3))
	ix := tr.BuildIndex()
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 2 * time.Hour, End: sim.Day}); !ok || e.Start != 3*time.Hour {
		t.Fatalf("FirstOverlap = %+v, %v, want the [3h,4h) event", e, ok)
	}
	if e, ok := ix.FirstOverlap(0, sim.Window{Start: 2 * time.Hour, End: 3 * time.Hour}); ok {
		t.Fatalf("FirstOverlap = %+v, want none (only the instant at w.Start is in range)", e)
	}
}

// TestLastEndBeforeBoundaries completes the endpoint coverage: t exactly at
// an end counts ("at or before"), one instant earlier falls back.
func TestLastEndBeforeBoundaries(t *testing.T) {
	tr := boundaryTrace()
	ix := tr.BuildIndex()
	if end, ok := ix.LastEndBefore(0, 2*time.Hour); !ok || end != 2*time.Hour {
		t.Errorf("LastEndBefore(2h) = %v, %v, want 2h (boundary counts)", end, ok)
	}
	if end, ok := ix.LastEndBefore(0, 2*time.Hour-1); !ok || end != 0 {
		// The zero-length convention: no event ends at or before 2h-1
		// except... none do; the first end is 2h.
		if ok {
			t.Errorf("LastEndBefore(2h-1) = %v, want none", end)
		}
	}
}

func TestWindowQueries(t *testing.T) {
	tr := New(Span(sim.Day), sim.Calendar{}, 2)
	tr.Add(MkEvent(0, 2*time.Hour, 3*time.Hour, availability.S3))
	tr.Add(MkEvent(0, 10*time.Hour, 11*time.Hour, availability.S4))
	w := sim.Window{Start: time.Hour, End: 4 * time.Hour}
	if got := check.LinearOccurrencesInWindow(tr, 0, w); got != 1 {
		t.Errorf("OccurrencesInWindow = %d, want 1", got)
	}
	if got := check.LinearOccurrencesInWindow(tr, 1, w); got != 0 {
		t.Errorf("other machine occurrences = %d, want 0", got)
	}
	if !check.LinearAnyOverlap(tr, 0, sim.Window{Start: 2*time.Hour + 30*time.Minute, End: 5 * time.Hour}) {
		t.Error("AnyOverlap should see the 2-3h event")
	}
	if check.LinearAnyOverlap(tr, 0, sim.Window{Start: 4 * time.Hour, End: 9 * time.Hour}) {
		t.Error("AnyOverlap false positive")
	}
	ev, ok := check.LinearNextEventAfter(tr, 0, 3*time.Hour)
	if !ok || ev.Start != 10*time.Hour {
		t.Errorf("NextEventAfter = %+v, %v", ev, ok)
	}
	if _, ok := check.LinearNextEventAfter(tr, 0, 12*time.Hour); ok {
		t.Error("NextEventAfter past last event should report none")
	}
}
