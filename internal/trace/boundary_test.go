package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// boundaryTrace has one machine with three events chosen so every query
// below can land exactly on a start or end: [1h,2h) S3, [2h,3h) S4 (the
// two touch), and a zero-length event at 5h.
func boundaryTrace() *Trace {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, 3))
	tr.Add(mkEvent(0, 2*time.Hour, 3*time.Hour, 4))
	tr.Add(mkEvent(0, 5*time.Hour, 5*time.Hour, 5))
	return tr
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
	tr.Add(mkEvent(0, 2*time.Hour, 2*time.Hour, 5)) // instant event at w.Start
	tr.Add(mkEvent(0, 3*time.Hour, 4*time.Hour, 3))
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
