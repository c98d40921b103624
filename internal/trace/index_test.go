package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestIndexCountOutOfRange: machines the trace never mentions and windows
// wholly outside the hours the rows cover count nothing.
func TestIndexCountOutOfRange(t *testing.T) {
	tr := randomTrace(32, 100)
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

// TestIndexLastEndBefore answers from each machine's hourly row of ends over
// a day's span — inside an hour, on an hour, and past the row, where the
// last event ends after the span — and from a whole-slice search over a span
// longer than the longest row the index builds.
func TestIndexLastEndBefore(t *testing.T) {
	for _, span := range []sim.Window{{End: sim.Day}, {End: (maxRowHours + 1) * time.Hour}} {
		tr := New(span, sim.Calendar{}, 1)
		tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, 3))
		tr.Add(mkEvent(0, 5*time.Hour, 6*time.Hour, 3))
		tr.Add(mkEvent(0, 23*time.Hour, 26*time.Hour, 3))
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
