package trace_test

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/check"
	"repro/internal/sim"
	. "repro/internal/trace"
)

func TestHourlyCountsMatchesLinearScan(t *testing.T) {
	tr := RandomTrace(30, 1500)
	tr.Sort()
	hc := tr.BuildHourlyCounts()
	ix := tr.BuildIndex()
	for m := 0; m < tr.Machines; m++ {
		id := MachineID(m)
		for start := sim.Time(0); start+3*time.Hour <= tr.Span.End; start += 7 * time.Hour {
			w := sim.Window{Start: start, End: start + 3*time.Hour}
			n, ok := hc.CountInWindow(id, w)
			if !ok {
				t.Fatalf("aligned window %v reported unanswerable", w)
			}
			if want := check.LinearOccurrencesInWindow(tr, id, w); n != want {
				t.Fatalf("machine %d window %v: matrix %d, linear %d", m, w, n, want)
			}
			if want := ix.CountInWindow(id, w); n != want {
				t.Fatalf("machine %d window %v: matrix %d, index %d", m, w, n, want)
			}
		}
	}
}

func TestHourlyCountsRejectsMisaligned(t *testing.T) {
	tr := RandomTrace(31, 100)
	tr.Sort()
	hc := tr.BuildHourlyCounts()
	cases := []sim.Window{
		{Start: 30 * time.Minute, End: 2 * time.Hour},
		{Start: time.Hour, End: 90 * time.Minute},
		{Start: time.Hour + time.Nanosecond, End: 3 * time.Hour},
	}
	for _, w := range cases {
		if _, ok := hc.CountInWindow(0, w); ok {
			t.Errorf("misaligned window %v answered by the matrix", w)
		}
	}
}

func TestHourlyCountsOutOfRange(t *testing.T) {
	tr := RandomTrace(32, 100)
	tr.Sort()
	hc := tr.BuildHourlyCounts()
	w := sim.Window{Start: time.Hour, End: 2 * time.Hour}
	if _, ok := hc.CountInWindow(-1, w); ok {
		t.Error("negative machine answered")
	}
	// Machines beyond the matrix have no events by construction: exact zero.
	if n, ok := hc.CountInWindow(MachineID(tr.Machines+5), w); !ok || n != 0 {
		t.Errorf("machine past the fleet: got (%d, %v), want (0, true)", n, ok)
	}
	// Windows clamped outside the covered hour range count nothing.
	far := sim.Window{Start: 1000 * sim.Day, End: 1001 * sim.Day}
	if n, ok := hc.CountInWindow(0, far); !ok || n != 0 {
		t.Errorf("window past the span: got (%d, %v), want (0, true)", n, ok)
	}
}

func TestHourlyCountsNegativeTimes(t *testing.T) {
	tr := New(sim.Window{Start: -2 * sim.Day, End: 2 * sim.Day}, sim.Calendar{}, 2)
	tr.Add(Event{Machine: 0, Start: -25 * time.Hour, End: -24*time.Hour - 30*time.Minute, State: availability.S3})
	tr.Add(Event{Machine: 0, Start: -time.Hour, End: time.Hour, State: availability.S4})
	tr.Add(Event{Machine: 1, Start: 5 * time.Hour, End: 6 * time.Hour, State: availability.S5})
	tr.Sort()
	hc := tr.BuildHourlyCounts()
	for _, tc := range []struct {
		m    MachineID
		w    sim.Window
		want int
	}{
		{0, sim.Window{Start: -26 * time.Hour, End: -24 * time.Hour}, 1},
		{0, sim.Window{Start: -2 * time.Hour, End: 0}, 1},
		{0, sim.Window{Start: 0, End: 2 * time.Hour}, 0}, // started before the window
		{1, sim.Window{Start: -2 * sim.Day, End: 2 * sim.Day}, 1},
	} {
		n, ok := hc.CountInWindow(tc.m, tc.w)
		if !ok || n != tc.want {
			t.Errorf("machine %d window %v: got (%d, %v), want (%d, true); linear says %d",
				tc.m, tc.w, n, ok, tc.want, check.LinearOccurrencesInWindow(tr, tc.m, tc.w))
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
