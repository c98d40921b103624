package trace

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

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
