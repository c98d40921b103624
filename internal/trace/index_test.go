package trace_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/check"
	"repro/internal/sim"
	. "repro/internal/trace"
)

func TestIndexMatchesLinearQueries(t *testing.T) {
	tr := RandomTrace(11, 800)
	ix := tr.BuildIndex()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		m := MachineID(rng.Intn(tr.Machines))
		start := time.Duration(rng.Int63n(int64(tr.Span.End)))
		w := sim.Window{Start: start, End: start + time.Duration(rng.Int63n(int64(6*time.Hour)))}
		if got, want := ix.CountInWindow(m, w), check.LinearOccurrencesInWindow(tr, m, w); got != want {
			t.Fatalf("CountInWindow(%d, %v) = %d, want %d", m, w, got, want)
		}
		if got, want := ix.AnyOverlap(m, w), check.LinearAnyOverlap(tr, m, w); got != want {
			t.Fatalf("AnyOverlap(%d, %v) = %v, want %v", m, w, got, want)
		}
	}
}

// shiftedTrace is tr with its span and every event moved later by d.
func shiftedTrace(tr *Trace, d sim.Time) *Trace {
	out := New(sim.Window{Start: tr.Span.Start + d, End: tr.Span.End + d}, tr.Calendar, tr.Machines)
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
	base := RandomTrace(30, 1500)
	for _, tr := range []*Trace{base, shiftedTrace(base, 3*sim.Day+20*time.Minute)} {
		tr.Sort()
		ix := tr.BuildIndex()
		for m := 0; m < tr.Machines; m++ {
			id := MachineID(m)
			for start := sim.Time(sim.FloorHour(tr.Span.Start)) * time.Hour; start+3*time.Hour <= tr.Span.End; start += 7 * time.Hour {
				w := sim.Window{Start: start, End: start + 3*time.Hour}
				if got, want := ix.CountInWindow(id, w), check.LinearOccurrencesInWindow(tr, id, w); got != want {
					t.Fatalf("span %v machine %d window %v: index %d, linear %d", tr.Span, m, w, got, want)
				}
			}
		}
	}
}

// TestIndexMisalignedCountsMatchLinear: a window bound inside an hour is
// answered from the row plus a scan of that hour's events.
func TestIndexMisalignedCountsMatchLinear(t *testing.T) {
	tr := RandomTrace(31, 1500)
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
		id := MachineID(m)
		for _, w := range windows {
			if got, want := ix.CountInWindow(id, w), check.LinearOccurrencesInWindow(tr, id, w); got != want {
				t.Fatalf("machine %d window %v: index %d, linear %d", m, w, got, want)
			}
		}
	}
}

// TestIndexCountOutOfRange: machines the trace never mentions and windows
// wholly outside the hours the rows cover count nothing.
func TestIndexCountOutOfRange(t *testing.T) {
	tr := RandomTrace(32, 100)
	tr.Sort()
	ix := tr.BuildIndex()
	w := sim.Window{Start: time.Hour, End: 2 * time.Hour}
	for _, m := range []MachineID{-1, MachineID(tr.Machines + 5)} {
		if n := ix.CountInWindow(m, w); n != 0 {
			t.Errorf("machine %d outside the fleet counts %d", m, n)
		}
	}
	for _, w := range []sim.Window{
		{Start: 1000 * sim.Day, End: 1001 * sim.Day},
		{Start: -3 * sim.Day, End: -sim.Day - 30*time.Minute},
		{Start: 2 * time.Hour, End: time.Hour}, // inverted
	} {
		for m := 0; m < tr.Machines; m++ {
			if n := ix.CountInWindow(MachineID(m), w); n != 0 {
				t.Errorf("machine %d window %v outside the span counts %d", m, w, n)
			}
		}
	}
}

// TestIndexCountNegativeTimes: hours before t = 0 floor toward minus
// infinity, so a row starting in negative time lines up with the clock.
func TestIndexCountNegativeTimes(t *testing.T) {
	tr := New(sim.Window{Start: -2 * sim.Day, End: 2 * sim.Day}, sim.Calendar{}, 2)
	tr.Add(Event{Machine: 0, Start: -25 * time.Hour, End: -24*time.Hour - 30*time.Minute, State: availability.S3})
	tr.Add(Event{Machine: 0, Start: -time.Hour, End: time.Hour, State: availability.S4})
	tr.Add(Event{Machine: 1, Start: 5 * time.Hour, End: 6 * time.Hour, State: availability.S5})
	tr.Sort()
	ix := tr.BuildIndex()
	for _, tc := range []struct {
		m    MachineID
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
				tc.m, tc.w, n, tc.want, check.LinearOccurrencesInWindow(tr, tc.m, tc.w))
		}
	}
}

func TestIndexNextEventAfterMatchesLinear(t *testing.T) {
	tr := RandomTrace(33, 400)
	tr.Sort()
	ix := tr.BuildIndex()
	for m := 0; m < tr.Machines; m++ {
		id := MachineID(m)
		for ts := sim.Time(0); ts < tr.Span.End; ts += 13 * time.Hour {
			ge, gok := ix.NextEventAfter(id, ts)
			we, wok := check.LinearNextEventAfter(tr, id, ts)
			if gok != wok || (gok && ge != we) {
				t.Fatalf("NextEventAfter(%d, %v): index (%+v, %v), linear (%+v, %v)",
					m, ts, ge, gok, we, wok)
			}
		}
	}
}

func TestIndexAnyOverlapMatchesLinear(t *testing.T) {
	tr := RandomTrace(34, 400)
	tr.Sort()
	ix := tr.BuildIndex()
	for m := 0; m < tr.Machines; m++ {
		id := MachineID(m)
		for start := sim.Time(0); start+2*time.Hour <= tr.Span.End; start += 11 * time.Hour {
			w := sim.Window{Start: start, End: start + 2*time.Hour}
			if got, want := ix.AnyOverlap(id, w), check.LinearAnyOverlap(tr, id, w); got != want {
				t.Fatalf("AnyOverlap(%d, %v): index %v, linear %v", m, w, got, want)
			}
		}
	}
}

// TestIndexLastEndBefore answers from each machine's hourly row of ends over
// a day's span — inside an hour, on an hour, and past the row, where the
// last event ends after the span — and from a whole-slice search over a span
// longer than the longest row the index builds.
func TestIndexLastEndBefore(t *testing.T) {
	for _, span := range []sim.Window{{End: sim.Day}, {End: (MaxRowHours + 1) * time.Hour}} {
		tr := New(span, sim.Calendar{}, 1)
		tr.Add(MkEvent(0, 1*time.Hour, 2*time.Hour, 3))
		tr.Add(MkEvent(0, 5*time.Hour, 6*time.Hour, 3))
		tr.Add(MkEvent(0, 23*time.Hour, 26*time.Hour, 3))
		ix := tr.BuildIndex()
		for _, tc := range []struct {
			at   sim.Time
			want sim.Time // 0: none
		}{
			{-time.Hour, 0},
			{90 * time.Minute, 0},
			{2*time.Hour - 1, 0},
			{2 * time.Hour, 2 * time.Hour}, // an end on the boundary counts
			{3 * time.Hour, 2 * time.Hour},
			{5*time.Hour + 30*time.Minute, 2 * time.Hour},
			{6 * time.Hour, 6 * time.Hour},
			{25 * time.Hour, 6 * time.Hour},
			{30 * time.Hour, 26 * time.Hour},
		} {
			end, ok := ix.LastEndBefore(0, tc.at)
			if ok != (tc.want != 0) || end != tc.want {
				t.Errorf("span %v: LastEndBefore(%v) = %v, %v; want %v", span, tc.at, end, ok, tc.want)
			}
		}
		if _, ok := ix.LastEndBefore(9, time.Hour); ok {
			t.Error("unknown machine should report none")
		}
	}
}

func TestIndexEmptyTrace(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 2)
	ix := tr.BuildIndex()
	w := sim.Window{Start: 0, End: sim.Day}
	if ix.CountInWindow(0, w) != 0 || ix.AnyOverlap(0, w) {
		t.Error("empty index should report nothing")
	}
}
