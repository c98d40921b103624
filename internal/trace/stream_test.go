package trace_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/stats"
	. "repro/internal/trace"
)

// feed runs a sorted trace through a fresh StreamAnalyzer.
func feed(t *testing.T, tr *Trace) *StreamAnalyzer {
	t.Helper()
	a := NewStreamAnalyzer(tr.Span, tr.Calendar, tr.Machines)
	for _, e := range tr.Events {
		if err := a.Observe(e); err != nil {
			t.Fatalf("Observe(%+v): %v", e, err)
		}
	}
	a.Finish()
	return a
}

// assertAnalyzerMatches checks every streaming aggregate against the naive
// whole-slice oracle (internal/check) on the same trace — not against the
// Trace methods, which wrap the analyzer under test.
func assertAnalyzerMatches(t *testing.T, tr *Trace, a *StreamAnalyzer) {
	t.Helper()
	if got, want := a.Table2(), check.NaiveTable2(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("Table2 mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got, want := a.CountByCause(), check.NaiveCountByCause(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("CountByCause mismatch:\n got %+v\nwant %+v", got, want)
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if got, want := a.IntervalLengths(dt), check.NaiveIntervalLengths(tr, dt); !reflect.DeepEqual(got, want) {
			t.Errorf("IntervalLengths(%v) mismatch: got %d lengths, want %d", dt, len(got), len(want))
		}
		ge, we := a.IntervalECDF(dt), stats.NewECDF(check.NaiveIntervalLengths(tr, dt))
		if !reflect.DeepEqual(ge, we) {
			t.Errorf("IntervalECDF(%v) mismatch", dt)
		}
		if got, want := a.HourlyOccurrences(dt), check.NaiveHourlyOccurrences(tr, dt); !reflect.DeepEqual(got, want) {
			t.Errorf("HourlyOccurrences(%v) mismatch:\n got %+v\nwant %+v", dt, got, want)
		}
	}
}

func TestStreamAnalyzerMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 50, 2000} {
		tr := RandomTrace(int64(20+n), n)
		tr.Sort()
		assertAnalyzerMatches(t, tr, feed(t, tr))
	}
}

// TestStreamAnalyzerEmptyMachines pins the full-availability edge case: a
// machine with no failure events contributes one span-long interval, just
// like Trace.Intervals.
func TestStreamAnalyzerEmptyMachines(t *testing.T) {
	tr := New(sim.Window{Start: 0, End: 7 * sim.Day}, sim.Calendar{StartWeekday: 1}, 4)
	tr.Add(Event{Machine: 1, Start: 2 * time.Hour, End: 3 * time.Hour, State: availability.S3})
	tr.Sort()
	assertAnalyzerMatches(t, tr, feed(t, tr))
}

// TestStreamAnalyzerCoalescing checks the clip-after-coalesce order on
// events that touch, overlap and straddle the span edges.
func TestStreamAnalyzerCoalescing(t *testing.T) {
	tr := New(sim.Window{Start: sim.Day, End: 4 * sim.Day}, sim.Calendar{}, 2)
	// Touching pair, an overlapping pair, and events poking out of the span.
	tr.Add(Event{Machine: 0, Start: 30 * time.Hour, End: 31 * time.Hour, State: availability.S3})
	tr.Add(Event{Machine: 0, Start: 31 * time.Hour, End: 32 * time.Hour, State: availability.S4})
	tr.Add(Event{Machine: 0, Start: 40 * time.Hour, End: 44 * time.Hour, State: availability.S5})
	tr.Add(Event{Machine: 0, Start: 42 * time.Hour, End: 43 * time.Hour, State: availability.S3})
	tr.Add(Event{Machine: 1, Start: 20 * time.Hour, End: 26 * time.Hour, State: availability.S5})
	tr.Add(Event{Machine: 1, Start: 95 * time.Hour, End: 99 * time.Hour, State: availability.S5})
	tr.Sort()
	assertAnalyzerMatches(t, tr, feed(t, tr))
}

func TestStreamAnalyzerRejectsOutOfOrder(t *testing.T) {
	a := NewStreamAnalyzer(sim.Window{Start: 0, End: sim.Day}, sim.Calendar{}, 3)
	ok := Event{Machine: 1, Start: 5 * time.Hour, End: 6 * time.Hour, State: availability.S3}
	if err := a.Observe(ok); err != nil {
		t.Fatal(err)
	}
	badMachine := Event{Machine: 0, Start: 7 * time.Hour, End: 8 * time.Hour, State: availability.S3}
	if err := a.Observe(badMachine); err == nil {
		t.Error("decreasing machine id accepted")
	}
	a = NewStreamAnalyzer(sim.Window{Start: 0, End: sim.Day}, sim.Calendar{}, 3)
	if err := a.Observe(ok); err != nil {
		t.Fatal(err)
	}
	badStart := Event{Machine: 1, Start: 4 * time.Hour, End: 7 * time.Hour, State: availability.S3}
	if err := a.Observe(badStart); err == nil {
		t.Error("decreasing start accepted")
	}
}

func TestStreamAnalyzerPanicsBeforeFinish(t *testing.T) {
	a := NewStreamAnalyzer(sim.Window{Start: 0, End: sim.Day}, sim.Calendar{}, 1)
	defer func() {
		if recover() == nil {
			t.Error("querying an unfinished analyzer did not panic")
		}
	}()
	a.Table2()
}
