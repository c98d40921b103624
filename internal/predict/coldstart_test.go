package predict

import (
	"math"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// coldStartTrace builds a small two-machine trace with a few events on
// machine 0 and none on machine 1, spanning two weeks from a Monday.
func coldStartTrace() *trace.Trace {
	tr := trace.New(sim.Window{Start: 0, End: 14 * sim.Day}, sim.Calendar{}, 2)
	for d := 0; d < 10; d++ {
		start := sim.Time(d)*sim.Day + 9*time.Hour
		tr.Add(trace.Event{Machine: 0, Start: start, End: start + 30*time.Minute, State: availability.S3})
	}
	tr.Sort()
	return tr
}

// TestPredictorColdStartEdges pins the documented defined values every
// predictor must return on empty or absent history: no NaN, no panic, and
// the specific no-information fallbacks.
func TestPredictorColdStartEdges(t *testing.T) {
	tr := coldStartTrace()

	newTrained := func(p Predictor) Predictor { p.Train(NewTraceHistory(tr)); return p }

	tests := []struct {
		name string
		p    Predictor
		m    trace.MachineID
		w    sim.Window
		// wantCount/wantSurvival of math.NaN() means "any finite value in
		// range" (checked generically below); concrete values are pinned
		// exactly.
		wantCount    float64
		wantSurvival float64
	}{
		{
			name:      "history-window untrained",
			p:         &HistoryWindow{},
			m:         0,
			w:         sim.Window{Start: 15 * sim.Day, End: 15*sim.Day + time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "history-window machine absent from training",
			p:         newTrained(&HistoryWindow{}),
			m:         trace.MachineID(tr.Machines), // one past the fleet
			w:         sim.Window{Start: 14*sim.Day + 9*time.Hour, End: 14*sim.Day + 12*time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "history-window negative machine id",
			p:         newTrained(&HistoryWindow{}),
			m:         -1,
			w:         sim.Window{Start: 14*sim.Day + 9*time.Hour, End: 14*sim.Day + 12*time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "history-window window before any history",
			p:         newTrained(&HistoryWindow{}),
			m:         0,
			w:         sim.Window{Start: 0, End: time.Hour}, // first day: no prior same-type day
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "history-window min-history-days unmet",
			p:         newTrained(&HistoryWindow{MinHistoryDays: 1000}),
			m:         0,
			w:         sim.Window{Start: 14*sim.Day + 9*time.Hour, End: 14*sim.Day + 10*time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "ewma-daily untrained",
			p:         &EWMADaily{},
			m:         0,
			w:         sim.Window{Start: 15 * sim.Day, End: 15*sim.Day + time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "ewma-daily before the first full day",
			p:         newTrained(&EWMADaily{}),
			m:         0,
			w:         sim.Window{Start: 6 * time.Hour, End: 9 * time.Hour}, // day 0: no prior day exists
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "ewma-daily machine absent from training",
			p:         newTrained(&EWMADaily{}),
			m:         trace.MachineID(tr.Machines),
			w:         sim.Window{Start: 10*sim.Day + 9*time.Hour, End: 10*sim.Day + 10*time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "ewma-daily negative machine id",
			p:         newTrained(&EWMADaily{}),
			m:         -1,
			w:         sim.Window{Start: 10*sim.Day + 9*time.Hour, End: 10*sim.Day + 10*time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "ewma-daily machine with no events",
			p:         newTrained(&EWMADaily{}),
			m:         1,
			w:         sim.Window{Start: 10*sim.Day + 9*time.Hour, End: 10*sim.Day + 10*time.Hour},
			wantCount: 0, wantSurvival: 1, // ten failure-free history days: certain survival
		},
		{
			name:      "semi-markov untrained",
			p:         &SemiMarkov{},
			m:         0,
			w:         sim.Window{Start: 15 * sim.Day, End: 15*sim.Day + time.Hour},
			wantCount: 0, wantSurvival: 0.5,
		},
		{
			name:      "semi-markov no prior event and query before span start",
			p:         newTrained(&SemiMarkov{}),
			m:         1,
			w:         sim.Window{Start: -2 * sim.Day, End: -2*sim.Day + time.Hour},
			wantCount: math.NaN(), wantSurvival: math.NaN(), // any defined in-range value
		},
		{
			name:      "last-day untrained",
			p:         &LastDay{},
			m:         0,
			w:         sim.Window{Start: 15 * sim.Day, End: 15*sim.Day + time.Hour},
			wantCount: 0, wantSurvival: 0.75,
		},
		{
			name: "global-rate empty span",
			p: func() Predictor {
				g := &GlobalRate{}
				g.Train(NewTraceHistory(trace.New(sim.Window{}, sim.Calendar{}, 1)))
				return g
			}(),
			m:         0,
			w:         sim.Window{Start: 0, End: time.Hour},
			wantCount: 0, wantSurvival: 1,
		},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			count := tc.p.PredictCount(tc.m, tc.w)
			surv := tc.p.PredictSurvival(tc.m, tc.w)
			if math.IsNaN(count) || math.IsInf(count, 0) || count < 0 {
				t.Fatalf("PredictCount = %v, want a finite non-negative value", count)
			}
			if math.IsNaN(surv) || surv < 0 || surv > 1 {
				t.Fatalf("PredictSurvival = %v, want a value in [0, 1]", surv)
			}
			if !math.IsNaN(tc.wantCount) && count != tc.wantCount {
				t.Errorf("PredictCount = %v, want %v", count, tc.wantCount)
			}
			if !math.IsNaN(tc.wantSurvival) && surv != tc.wantSurvival {
				t.Errorf("PredictSurvival = %v, want %v", surv, tc.wantSurvival)
			}
		})
	}
}

// TestSemiMarkovAgeClamp pins the age fallbacks directly: no prior event
// measures from the span start, and a pre-span query clamps at zero.
func TestSemiMarkovAgeClamp(t *testing.T) {
	tr := coldStartTrace()
	s := &SemiMarkov{}
	s.Train(NewTraceHistory(tr))

	if got := s.age(1, 3*sim.Day); got != 3*sim.Day {
		t.Errorf("age with no prior event = %v, want %v (measured from span start)", got, 3*sim.Day)
	}
	if got := s.age(1, -5*sim.Day); got != 0 {
		t.Errorf("age before the span start = %v, want 0", got)
	}
	// After an event the age restarts at the event end.
	end := 9*sim.Day + 9*time.Hour + 30*time.Minute
	if got := s.age(0, end+2*time.Hour); got != 2*time.Hour {
		t.Errorf("age after last event = %v, want %v", got, 2*time.Hour)
	}
}

// TestSemiMarkovAgeSpanStartBoundary pins the boundary the audit fixed: an
// event whose End coincides exactly with the span start counts as a prior
// renewal, and the age it implies equals the no-prior-event fallback (both
// measure from the span start), so the two code paths must agree exactly.
func TestSemiMarkovAgeSpanStartBoundary(t *testing.T) {
	span := sim.Window{Start: 2 * sim.Day, End: 16 * sim.Day}
	tr := trace.New(span, sim.Calendar{}, 2)
	// Machine 0: an event ending exactly at the span start.
	tr.Add(trace.Event{Machine: 0, Start: span.Start - 30*time.Minute, End: span.Start, State: availability.S3})
	// Machine 1: no events at all.
	tr.Sort()
	s := &SemiMarkov{}
	s.Train(NewTraceHistory(tr))

	at := span.Start + 5*time.Hour
	withEvent := s.age(0, at)
	withoutEvent := s.age(1, at)
	if withEvent != 5*time.Hour {
		t.Errorf("age with event ending at span start = %v, want %v", withEvent, 5*time.Hour)
	}
	if withEvent != withoutEvent {
		t.Errorf("span-start boundary: age with event = %v, without = %v, want equal", withEvent, withoutEvent)
	}
	// Querying exactly at the event end (== span start) is age zero from
	// either path, never negative.
	if got := s.age(0, span.Start); got != 0 {
		t.Errorf("age at the span start = %v, want 0", got)
	}
}

// TestSemiMarkovSurvivalSingleEvaluation pins PredictSurvival against the
// ECDF identity it implements: S(age+d)/S(age) when mass remains past the
// age, the unconditional S(d) fallback otherwise. This is the contract the
// double-evaluation cleanup must preserve.
func TestSemiMarkovSurvivalSingleEvaluation(t *testing.T) {
	tr := coldStartTrace()
	s := &SemiMarkov{}
	s.Train(NewTraceHistory(tr))

	ecdf := tr.IntervalECDF(sim.Weekday)
	if ecdf.N() == 0 {
		t.Fatal("fixture produced no weekday intervals")
	}

	// In-support age: conditional survival, computed once.
	w := sim.Window{Start: 3*sim.Day + 10*time.Hour, End: 3*sim.Day + 12*time.Hour}
	age := s.age(0, w.Start).Hours()
	if sa := ecdf.Survival(age); sa > 0 {
		want := ecdf.Survival(age+w.Duration().Hours()) / sa
		if got := s.PredictSurvival(0, w); got != want {
			t.Errorf("PredictSurvival = %v, want conditional survival %v", got, want)
		}
	} else {
		t.Fatalf("fixture age %v hours already out of support; pick an earlier window", age)
	}

	// Out-of-support age (querying past the span end pushes machine 1's
	// failure-free age beyond the longest trained interval, the 336h full
	// span): unconditional fallback.
	w2 := sim.Window{Start: 16*sim.Day + 9*time.Hour, End: 16*sim.Day + 10*time.Hour}
	age2 := s.age(1, w2.Start).Hours()
	if sa := ecdf.Survival(age2); sa != 0 {
		t.Fatalf("expected out-of-support age for machine 1, got Survival(%v) = %v", age2, sa)
	}
	if got, want := s.PredictSurvival(1, w2), ecdf.Survival(w2.Duration().Hours()); got != want {
		t.Errorf("fallback PredictSurvival = %v, want unconditional %v", got, want)
	}
}

// TestEWMAColdStartTransitionsToInformed verifies the cold-start prior
// yields to real history as soon as one full prior day exists.
func TestEWMAColdStartTransitionsToInformed(t *testing.T) {
	tr := coldStartTrace()
	e := &EWMADaily{}
	e.Train(NewTraceHistory(tr))
	// Day 1, same clock window as the daily event: one prior day of
	// history with one event -> survival strictly informed (< 1, != 0.5 prior).
	w := sim.Window{Start: sim.Day + 9*time.Hour, End: sim.Day + 10*time.Hour}
	surv := e.PredictSurvival(0, w)
	if surv >= 1 || math.IsNaN(surv) {
		t.Fatalf("informed survival = %v, want < 1", surv)
	}
	if count := e.PredictCount(0, w); count != 1 {
		t.Fatalf("one event on the one prior day: PredictCount = %v, want 1", count)
	}
}
