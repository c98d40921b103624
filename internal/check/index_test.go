package check

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestIndexMatchesLinearQueries(t *testing.T) {
	tr := randomTrace(11, 800)
	ix := tr.BuildIndex()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		m := trace.MachineID(rng.Intn(tr.Machines))
		start := time.Duration(rng.Int63n(int64(tr.Span.End)))
		w := sim.Window{Start: start, End: start + time.Duration(rng.Int63n(int64(6*time.Hour)))}
		if got, want := ix.CountInWindow(m, w), LinearOccurrencesInWindow(tr, m, w); got != want {
			t.Fatalf("CountInWindow(%d, %v) = %d, want %d", m, w, got, want)
		}
		if got, want := ix.AnyOverlap(m, w), LinearAnyOverlap(tr, m, w); got != want {
			t.Fatalf("AnyOverlap(%d, %v) = %v, want %v", m, w, got, want)
		}
	}
}

// shiftedTrace is tr with its span and every event moved later by d.
func shiftedTrace(tr *trace.Trace, d sim.Time) *trace.Trace {
	out := trace.New(sim.Window{Start: tr.Span.Start + d, End: tr.Span.End + d}, tr.Calendar, tr.Machines)
	for _, e := range tr.Events {
		e.Start += d
		e.End += d
		out.Add(e)
	}
	return out
}

// TestIndexHourAlignedCountsMatchLinear: hour-aligned windows, which start
// counts answer from each machine's hourly row alone, on a span at 0 and on
// one that starts 20 minutes into a day three days later.
func TestIndexHourAlignedCountsMatchLinear(t *testing.T) {
	base := randomTrace(30, 1500)
	for _, tr := range []*trace.Trace{base, shiftedTrace(base, 3*sim.Day+20*time.Minute)} {
		tr.Sort()
		ix := tr.BuildIndex()
		for m := 0; m < tr.Machines; m++ {
			id := trace.MachineID(m)
			for start := sim.Time(sim.FloorHour(tr.Span.Start)) * time.Hour; start+3*time.Hour <= tr.Span.End; start += 7 * time.Hour {
				w := sim.Window{Start: start, End: start + 3*time.Hour}
				if got, want := ix.CountInWindow(id, w), LinearOccurrencesInWindow(tr, id, w); got != want {
					t.Fatalf("span %v machine %d window %v: index %d, linear %d", tr.Span, m, w, got, want)
				}
			}
		}
	}
}

// TestIndexMisalignedCountsMatchLinear: a window bound inside an hour is
// answered from the row plus a scan of that hour's events.
func TestIndexMisalignedCountsMatchLinear(t *testing.T) {
	tr := randomTrace(31, 1500)
	tr.Sort()
	ix := tr.BuildIndex()
	windows := []sim.Window{
		{Start: 30 * time.Minute, End: 2 * time.Hour},
		{Start: time.Hour, End: 90 * time.Minute},
		{Start: time.Hour + time.Nanosecond, End: 3 * time.Hour},
	}
	for _, e := range tr.Events[:200] { // bounds on, beside and inside events
		windows = append(windows,
			sim.Window{Start: e.Start, End: e.End + 1},
			sim.Window{Start: e.Start + 1, End: e.Start + 90*time.Minute},
			sim.Window{Start: e.Start - 17*time.Minute, End: e.Start})
	}
	for m := 0; m < tr.Machines; m++ {
		id := trace.MachineID(m)
		for _, w := range windows {
			if got, want := ix.CountInWindow(id, w), LinearOccurrencesInWindow(tr, id, w); got != want {
				t.Fatalf("machine %d window %v: index %d, linear %d", m, w, got, want)
			}
		}
	}
}

// TestIndexCountNegativeTimes: hours before t = 0 floor toward minus
// infinity, so a row starting in negative time lines up with the clock.
func TestIndexCountNegativeTimes(t *testing.T) {
	tr := trace.New(sim.Window{Start: -2 * sim.Day, End: 2 * sim.Day}, sim.Calendar{}, 2)
	tr.Add(trace.Event{Machine: 0, Start: -25 * time.Hour, End: -24*time.Hour - 30*time.Minute, State: availability.S3})
	tr.Add(trace.Event{Machine: 0, Start: -time.Hour, End: time.Hour, State: availability.S4})
	tr.Add(trace.Event{Machine: 1, Start: 5 * time.Hour, End: 6 * time.Hour, State: availability.S5})
	tr.Sort()
	ix := tr.BuildIndex()
	for _, tc := range []struct {
		m    trace.MachineID
		w    sim.Window
		want int
	}{
		{0, sim.Window{Start: -26 * time.Hour, End: -24 * time.Hour}, 1},
		{0, sim.Window{Start: -25*time.Hour + 1, End: -24 * time.Hour}, 0},
		{0, sim.Window{Start: -2 * time.Hour, End: 0}, 1},
		{0, sim.Window{Start: 0, End: 2 * time.Hour}, 0}, // started before the window
		{1, sim.Window{Start: -2 * sim.Day, End: 2 * sim.Day}, 1},
	} {
		if n := ix.CountInWindow(tc.m, tc.w); n != tc.want {
			t.Errorf("machine %d window %v: got %d, want %d; linear says %d",
				tc.m, tc.w, n, tc.want, LinearOccurrencesInWindow(tr, tc.m, tc.w))
		}
	}
}

func TestIndexNextEventAfterMatchesLinear(t *testing.T) {
	tr := randomTrace(33, 400)
	tr.Sort()
	ix := tr.BuildIndex()
	for m := 0; m < tr.Machines; m++ {
		id := trace.MachineID(m)
		for ts := sim.Time(0); ts < tr.Span.End; ts += 13 * time.Hour {
			ge, gok := ix.NextEventAfter(id, ts)
			we, wok := LinearNextEventAfter(tr, id, ts)
			if gok != wok || (gok && ge != we) {
				t.Fatalf("NextEventAfter(%d, %v): index (%+v, %v), linear (%+v, %v)",
					m, ts, ge, gok, we, wok)
			}
		}
	}
}

func TestIndexAnyOverlapMatchesLinear(t *testing.T) {
	tr := randomTrace(34, 400)
	tr.Sort()
	ix := tr.BuildIndex()
	for m := 0; m < tr.Machines; m++ {
		id := trace.MachineID(m)
		for start := sim.Time(0); start+2*time.Hour <= tr.Span.End; start += 11 * time.Hour {
			w := sim.Window{Start: start, End: start + 2*time.Hour}
			if got, want := ix.AnyOverlap(id, w), LinearAnyOverlap(tr, id, w); got != want {
				t.Fatalf("AnyOverlap(%d, %v): index %v, linear %v", m, w, got, want)
			}
		}
	}
}

// boundaryTrace has one machine with three events chosen so every query
// below can land exactly on a start or end: [1h,2h) S3, [2h,3h) S4 (the
// two touch), and a zero-length event at 5h.
func boundaryTrace() *trace.Trace {
	tr := trace.New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, 3))
	tr.Add(mkEvent(0, 2*time.Hour, 3*time.Hour, 4))
	tr.Add(mkEvent(0, 5*time.Hour, 5*time.Hour, 5))
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
		le, lok := LinearNextEventAfter(tr, 0, c.ts)
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
	tr := trace.New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	// Deliberately stored longest-first and never sorted.
	tr.Add(mkEvent(0, 1*time.Hour, 4*time.Hour, 3))
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, 4))
	ix := tr.BuildIndex()
	le, _ := LinearNextEventAfter(tr, 0, 0)
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
		if got := LinearAnyOverlap(tr, 0, c.w); got != c.want {
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
		if got := LinearOccurrencesInWindow(tr, 0, c.w); got != c.want {
			t.Errorf("linear OccurrencesInWindow(%v) = %d, want %d", c.w, got, c.want)
		}
		if got := ix.CountInWindow(0, c.w); got != c.want {
			t.Errorf("indexed CountInWindow(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestWindowQueries(t *testing.T) {
	tr := trace.New(span(sim.Day), sim.Calendar{}, 2)
	tr.Add(mkEvent(0, 2*time.Hour, 3*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 10*time.Hour, 11*time.Hour, availability.S4))
	w := sim.Window{Start: time.Hour, End: 4 * time.Hour}
	if got := LinearOccurrencesInWindow(tr, 0, w); got != 1 {
		t.Errorf("OccurrencesInWindow = %d, want 1", got)
	}
	if got := LinearOccurrencesInWindow(tr, 1, w); got != 0 {
		t.Errorf("other machine occurrences = %d, want 0", got)
	}
	if !LinearAnyOverlap(tr, 0, sim.Window{Start: 2*time.Hour + 30*time.Minute, End: 5 * time.Hour}) {
		t.Error("AnyOverlap should see the 2-3h event")
	}
	if LinearAnyOverlap(tr, 0, sim.Window{Start: 4 * time.Hour, End: 9 * time.Hour}) {
		t.Error("AnyOverlap false positive")
	}
	ev, ok := LinearNextEventAfter(tr, 0, 3*time.Hour)
	if !ok || ev.Start != 10*time.Hour {
		t.Errorf("NextEventAfter = %+v, %v", ev, ok)
	}
	if _, ok := LinearNextEventAfter(tr, 0, 12*time.Hour); ok {
		t.Error("NextEventAfter past last event should report none")
	}
}
