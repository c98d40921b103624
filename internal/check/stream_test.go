package check

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestStreamAnalyzerMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 50, 2000} {
		tr := randomTrace(int64(20+n), n)
		tr.Sort()
		if _, err := serialMatchesOracle("random", tr); err != nil {
			t.Errorf("%d events: %v", n, err)
		}
	}
}

// TestStreamAnalyzerEmptyMachines pins the full-availability edge case: a
// machine with no failure events contributes one span-long interval, just
// like Trace.Intervals.
func TestStreamAnalyzerEmptyMachines(t *testing.T) {
	tr := trace.New(sim.Window{Start: 0, End: 7 * sim.Day}, sim.Calendar{StartWeekday: 1}, 4)
	tr.Add(trace.Event{Machine: 1, Start: 2 * time.Hour, End: 3 * time.Hour, State: availability.S3})
	tr.Sort()
	if _, err := serialMatchesOracle("empty machines", tr); err != nil {
		t.Error(err)
	}
}

// TestStreamAnalyzerCoalescing checks the clip-after-coalesce order on
// events that touch, overlap and straddle the span edges.
func TestStreamAnalyzerCoalescing(t *testing.T) {
	tr := trace.New(sim.Window{Start: sim.Day, End: 4 * sim.Day}, sim.Calendar{}, 2)
	// Touching pair, an overlapping pair, and events poking out of the span.
	tr.Add(trace.Event{Machine: 0, Start: 30 * time.Hour, End: 31 * time.Hour, State: availability.S3})
	tr.Add(trace.Event{Machine: 0, Start: 31 * time.Hour, End: 32 * time.Hour, State: availability.S4})
	tr.Add(trace.Event{Machine: 0, Start: 40 * time.Hour, End: 44 * time.Hour, State: availability.S5})
	tr.Add(trace.Event{Machine: 0, Start: 42 * time.Hour, End: 43 * time.Hour, State: availability.S3})
	tr.Add(trace.Event{Machine: 1, Start: 20 * time.Hour, End: 26 * time.Hour, State: availability.S5})
	tr.Add(trace.Event{Machine: 1, Start: 95 * time.Hour, End: 99 * time.Hour, State: availability.S5})
	tr.Sort()
	if _, err := serialMatchesOracle("coalescing", tr); err != nil {
		t.Error(err)
	}
}
