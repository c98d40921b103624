package predict

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// periodicTrace builds a fully regular synthetic history: one event per
// weekday at 10:00 and one per weekend day at 14:00, on each machine.
func periodicTrace(days, machines int) *trace.Trace {
	cal := sim.Calendar{}
	tr := trace.New(sim.Window{End: sim.Time(days) * sim.Day}, cal, machines)
	for d := 0; d < days; d++ {
		dayStart := sim.Time(d) * sim.Day
		hour := 10 * time.Hour
		if cal.DayType(dayStart) == sim.Weekend {
			hour = 14 * time.Hour
		}
		for m := 0; m < machines; m++ {
			tr.Add(trace.Event{
				Machine: trace.MachineID(m),
				Start:   dayStart + hour,
				End:     dayStart + hour + 10*time.Minute,
				State:   availability.S3,
			})
		}
	}
	tr.Sort()
	return tr
}

func TestHistoryWindowLearnsDailyPattern(t *testing.T) {
	tr := periodicTrace(28, 2)
	h := &HistoryWindow{}
	h.Train(NewTraceHistory(tr))
	// Predicting the 10-11 window on a future weekday (day 28 = Monday of
	// week 5): every history weekday had exactly one event there.
	day := sim.Time(28) * sim.Day
	w := sim.Window{Start: day + 10*time.Hour, End: day + 11*time.Hour}
	if got := h.PredictCount(0, w); got < 0.99 || got > 1.01 {
		t.Errorf("weekday 10-11 count = %v, want ~1", got)
	}
	// The same clock window on a weekday is failure-prone...
	if s := h.PredictSurvival(0, w); s > 0.2 {
		t.Errorf("weekday 10-11 survival = %v, want near 0", s)
	}
	// ...while 12-13 is clean.
	w2 := sim.Window{Start: day + 12*time.Hour, End: day + 13*time.Hour}
	if got := h.PredictCount(0, w2); got != 0 {
		t.Errorf("weekday 12-13 count = %v, want 0", got)
	}
	if s := h.PredictSurvival(0, w2); s < 0.8 {
		t.Errorf("weekday 12-13 survival = %v, want near 1", s)
	}
	// Weekend windows use weekend history: 10-11 is clean on weekends.
	sat := sim.Time(33) * sim.Day // day 33 = Saturday of week 5
	w3 := sim.Window{Start: sat + 10*time.Hour, End: sat + 11*time.Hour}
	if got := h.PredictCount(0, w3); got != 0 {
		t.Errorf("weekend 10-11 count = %v, want 0 (weekday pattern must not leak)", got)
	}
	w4 := sim.Window{Start: sat + 14*time.Hour, End: sat + 15*time.Hour}
	if got := h.PredictCount(0, w4); got < 0.99 {
		t.Errorf("weekend 14-15 count = %v, want ~1", got)
	}
}

func TestHistoryWindowUntrained(t *testing.T) {
	h := &HistoryWindow{}
	w := sim.Window{Start: 0, End: time.Hour}
	if h.PredictCount(0, w) != 0 {
		t.Error("untrained count should be 0")
	}
	if s := h.PredictSurvival(0, w); s != 0.5 {
		t.Errorf("untrained survival = %v, want uninformed 0.5", s)
	}
}

func TestHistoryWindowTrimmedAbsorbsIrregularDay(t *testing.T) {
	tr := periodicTrace(40, 1)
	// Inject one wildly irregular Monday with 30 extra events at 10:00.
	day0 := sim.Time(0) * sim.Day
	for i := 0; i < 30; i++ {
		tr.Add(trace.Event{
			Machine: 0,
			Start:   day0 + 10*time.Hour + time.Duration(i)*time.Minute,
			End:     day0 + 10*time.Hour + time.Duration(i)*time.Minute + 30*time.Second,
			State:   availability.S3,
		})
	}
	tr.Sort()
	trained := NewTraceHistory(tr)
	plain := &HistoryWindow{}
	plain.Train(trained)
	trimmed := &HistoryWindow{Trim: 0.15}
	trimmed.Train(trained)
	day := sim.Time(42) * sim.Day // future Monday
	w := sim.Window{Start: day + 10*time.Hour, End: day + 11*time.Hour}
	p, tm := plain.PredictCount(0, w), trimmed.PredictCount(0, w)
	if !(tm < p) {
		t.Errorf("trimmed (%v) should discount the outlier vs plain (%v)", tm, p)
	}
	if tm < 0.9 || tm > 1.5 {
		t.Errorf("trimmed estimate = %v, want near the regular 1/day", tm)
	}
}

func TestGlobalRate(t *testing.T) {
	tr := periodicTrace(10, 1) // 10 events over 240 hours
	g := &GlobalRate{}
	g.Train(NewTraceHistory(tr))
	w := sim.Window{Start: 0, End: 24 * time.Hour}
	if got := g.PredictCount(0, w); got < 0.99 || got > 1.01 {
		t.Errorf("global rate daily count = %v, want ~1", got)
	}
	s := g.PredictSurvival(0, w)
	if s < 0.3 || s > 0.45 {
		t.Errorf("survival = %v, want exp(-1) ~ 0.37", s)
	}
	// Unknown machine has zero rate.
	if g.PredictCount(5, w) != 0 {
		t.Error("unknown machine should predict 0")
	}
}

func TestLastDay(t *testing.T) {
	tr := periodicTrace(7, 1)
	l := &LastDay{}
	l.Train(NewTraceHistory(tr))
	// Tuesday 10-11 copies Monday 10-11 (one event).
	day := sim.Time(1) * sim.Day
	w := sim.Window{Start: day + 10*time.Hour, End: day + 11*time.Hour}
	if got := l.PredictCount(0, w); got != 1 {
		t.Errorf("last-day count = %v, want 1", got)
	}
	// Window before any history predicts 0.
	w0 := sim.Window{Start: 10 * time.Hour, End: 11 * time.Hour}
	if got := l.PredictCount(0, w0); got != 0 {
		t.Errorf("pre-history count = %v, want 0", got)
	}
}

func TestEWMADaily(t *testing.T) {
	tr := periodicTrace(21, 1)
	e := &EWMADaily{}
	e.Train(NewTraceHistory(tr))
	day := sim.Time(21) * sim.Day // Monday after 3 weeks
	w := sim.Window{Start: day + 10*time.Hour, End: day + 11*time.Hour}
	got := e.PredictCount(0, w)
	// Weekdays have 1, weekends 0 in this window; EWMA ends on Sunday so
	// the estimate is diluted but positive.
	if got <= 0 || got > 1 {
		t.Errorf("EWMA count = %v, want in (0, 1]", got)
	}
	if s := e.PredictSurvival(0, w); s <= 0 || s >= 1 {
		t.Errorf("EWMA survival = %v", s)
	}
}

func TestSemiMarkov(t *testing.T) {
	tr := periodicTrace(28, 1)
	s := &SemiMarkov{}
	s.Train(NewTraceHistory(tr))
	day := sim.Time(28) * sim.Day
	w := sim.Window{Start: day + time.Hour, End: day + 2*time.Hour}
	surv := s.PredictSurvival(0, w)
	if surv < 0 || surv > 1 {
		t.Fatalf("survival = %v outside [0,1]", surv)
	}
	if c := s.PredictCount(0, w); c <= 0 {
		t.Errorf("renewal count = %v, want positive", c)
	}
	// Longer windows can only reduce survival.
	w2 := sim.Window{Start: day + time.Hour, End: day + 12*time.Hour}
	if s2 := s.PredictSurvival(0, w2); s2 > surv+1e-9 {
		t.Errorf("survival must be monotone in window length: %v then %v", surv, s2)
	}
}

// TestEvalConfigValidation covers all four evaluation entry points: they
// share one validating helper, so each must reject the same bad configs
// with the same error. (LearningCurve takes its training lengths as an
// argument and ignores TrainDays, so only its own cases apply there.)
func TestEvalConfigValidation(t *testing.T) {
	tr := periodicTrace(7, 1)
	var buf bytes.Buffer
	if err := tr.WriteBlocks(&buf, nil); err != nil {
		t.Fatal(err)
	}
	bf, err := trace.NewBlockFileBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Predictor { return &HistoryWindow{} }
	entry := map[string]func(EvalConfig) error{
		"Evaluate": func(c EvalConfig) error { _, err := Evaluate(tr, DefaultPredictors(), c); return err },
		"EvaluateBlocks": func(c EvalConfig) error {
			_, err := EvaluateBlocks(bf, DefaultPredictors(), c)
			return err
		},
		"Calibration": func(c EvalConfig) error { _, err := Calibration(tr, mk(), c, 10); return err },
		"LearningCurve": func(c EvalConfig) error {
			_, err := LearningCurve(tr, mk, []int{max(c.TrainDays, 3)}, c)
			return err
		},
	}
	for _, tc := range []struct {
		what           string
		cfg            EvalConfig
		skipLearnCurve bool
	}{
		{"negative train days", EvalConfig{TrainDays: -1, Window: time.Hour}, true},
		{"training longer than the trace", EvalConfig{TrainDays: 30, Window: time.Hour}, false},
		{"negative window", EvalConfig{TrainDays: 3, Window: -time.Hour}, false},
		// A negative stride used to send LearningCurve walking ~2.56 M
		// windows backwards until int64 wrapped, and return a score.
		{"negative stride", EvalConfig{TrainDays: 3, Window: time.Hour, Stride: -time.Hour}, false},
	} {
		want := entry["Evaluate"](tc.cfg)
		if want == nil {
			t.Errorf("%s: Evaluate accepted %+v", tc.what, tc.cfg)
			continue
		}
		for name, run := range entry {
			if name == "LearningCurve" && tc.skipLearnCurve {
				continue
			}
			if err := run(tc.cfg); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s = %v, want %v", tc.what, name, err, want)
			}
		}
	}
}

// sharedTestbedTrace memoizes a moderately sized testbed trace.
var (
	tbOnce sync.Once
	tbTr   *trace.Trace
	tbErr  error
)

func testbedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tbOnce.Do(func() {
		cfg := testbed.DefaultConfig()
		cfg.Machines = 8
		cfg.Days = 70
		tbTr, tbErr = testbed.Run(cfg)
	})
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbTr
}

// TestPredictabilityClaim is the paper's bottom line (Section 5.3): daily
// patterns repeat, so the history-window predictor must beat both the
// time-of-day-blind baseline and the naive persistence baseline.
func TestPredictabilityClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	ev, err := Evaluate(tr, DefaultPredictors(), EvalConfig{TrainDays: 28, Window: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	hw, ok1 := ev.ScoreByName("history-window")
	gr, ok2 := ev.ScoreByName("global-rate")
	ld, ok3 := ev.ScoreByName("last-day")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing scores in %+v", ev.Scores)
	}
	if !(hw.MAE < gr.MAE) {
		t.Errorf("history-window MAE %v should beat global-rate %v", hw.MAE, gr.MAE)
	}
	if !(hw.MAE < ld.MAE) {
		t.Errorf("history-window MAE %v should beat last-day %v", hw.MAE, ld.MAE)
	}
	if !(hw.Brier < 0.25) {
		t.Errorf("history-window Brier %v should beat a coin flip", hw.Brier)
	}
	if !(hw.Brier < ld.Brier) {
		t.Errorf("history-window Brier %v should beat last-day %v", hw.Brier, ld.Brier)
	}
	if !strings.Contains(ev.Format(), "history-window") {
		t.Error("Format missing predictors")
	}
}

// TestSurvivalProbabilitiesInRange property-checks every predictor.
func TestSurvivalProbabilitiesInRange(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	cut := tr.Span.Start + 28*sim.Day
	hist := NewTraceHistory(tr.Before(cut))
	for _, p := range DefaultPredictors() {
		p.Train(hist)
		for d := 0; d < 10; d++ {
			start := cut + sim.Time(d)*7*time.Hour
			w := sim.Window{Start: start, End: start + 2*time.Hour}
			for m := 0; m < tr.Machines; m += 3 {
				s := p.PredictSurvival(trace.MachineID(m), w)
				if s < 0 || s > 1 {
					t.Fatalf("%s survival %v outside [0,1]", p.Name(), s)
				}
				if c := p.PredictCount(trace.MachineID(m), w); c < 0 {
					t.Fatalf("%s negative count %v", p.Name(), c)
				}
			}
		}
	}
}
