package markov_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/markov"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestScenarioStreamDifferential pins the package-local leg of the check
// harness differential: for each scenario, a serial StreamAnalyzer over
// the sorted events must reproduce the naive whole-slice oracles of
// internal/check exactly — not the Trace methods, which wrap the analyzer.
// (The cross-path serial/sharded/parallel-block differential runs in
// internal/check; importing it is why this file is package markov_test.)
func TestScenarioStreamDifferential(t *testing.T) {
	for _, s := range markov.Scenarios() {
		tr, err := markov.GenerateScenario(s.Name, markov.GenConfig{Machines: 5, Days: 5, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		an := trace.NewStreamAnalyzer(tr.Span, tr.Calendar, tr.Machines)
		for _, e := range tr.Events {
			if err := an.Observe(e); err != nil {
				t.Fatalf("%s: observe: %v", s.Name, err)
			}
		}
		an.Finish()
		if got, want := an.Table2(), check.NaiveTable2(tr); got != want {
			t.Errorf("%s: Table2 stream %+v != oracle %+v", s.Name, got, want)
		}
		if got, want := an.CountByCause(), check.NaiveCountByCause(tr); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CountByCause diverges", s.Name)
		}
		for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
			if got, want := an.IntervalLengths(dt), check.NaiveIntervalLengths(tr, dt); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: interval lengths diverge (%d vs %d samples)", s.Name, dt, len(got), len(want))
			}
			if got, want := an.HourlyOccurrences(dt), check.NaiveHourlyOccurrences(tr, dt); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %v: hourly occurrences diverge", s.Name, dt)
			}
		}
	}
}
