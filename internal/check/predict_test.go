package check

import (
	"testing"
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// naivePredictor adapts the reference estimators (linear scans, their own
// day walk — no index, none of internal/predict's code) to the predict.Predictor
// interface.
type naivePredictor struct {
	name    string
	tr      *trace.Trace
	predict func(tr *trace.Trace, m trace.MachineID, w sim.Window) (count, survival float64)
}

func (n *naivePredictor) Name() string                  { return n.name }
func (n *naivePredictor) Train(h *predict.TraceHistory) { n.tr = h.Trace() }
func (n *naivePredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _ := n.predict(n.tr, m, w)
	return count
}
func (n *naivePredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival := n.predict(n.tr, m, w)
	return survival
}

func naivePredictors() []predict.Predictor {
	return []predict.Predictor{
		&naivePredictor{name: "history-window", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return NaiveHistoryWindow(tr, m, w, 0)
		}},
		&naivePredictor{name: "history-window(trimmed)", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return NaiveHistoryWindow(tr, m, w, 0.1)
		}},
		&naivePredictor{name: "ewma-daily", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return NaiveEWMADaily(tr, m, w)
		}},
	}
}

// TestIndexHistoryScoresIdentical: predictor scores through the indexed
// store, hourly rows and memos must be bit-identical to the naive
// reference's, for both the default hour-aligned config and deliberately
// misaligned ones that scan inside an hour.
func TestIndexHistoryScoresIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	// Four machines: the reference scans every event once per history count.
	configs := []predict.EvalConfig{
		{TrainDays: 28, Window: 3 * time.Hour, MaxMachines: 4},
		{TrainDays: 28, Window: 3 * time.Hour, Stride: 90 * time.Minute, MaxMachines: 4},
		{TrainDays: 21, Window: 100 * time.Minute, MaxMachines: 4},
	}
	for _, cfg := range configs {
		fast, err := predict.Evaluate(tr, []predict.Predictor{&predict.HistoryWindow{}, &predict.HistoryWindow{Trim: 0.1}, &predict.EWMADaily{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := predict.Evaluate(tr, naivePredictors(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fast.Scores {
			if s := slow.Scores[i]; f != s {
				t.Errorf("config %+v: indexed scores %+v, reference scores %+v", cfg, f, s)
			}
		}
	}
}

// TestIndexHistoryPredictionsIdentical compares raw predictions, not just
// aggregate scores, across aligned and misaligned windows.
func TestIndexHistoryPredictionsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	cut := tr.Span.End - 14*24*time.Hour
	hist := tr.Before(cut)

	fast := []predict.Predictor{&predict.HistoryWindow{}, &predict.HistoryWindow{Trim: 0.1}, &predict.EWMADaily{}}
	slow := naivePredictors()
	trained := predict.NewTraceHistory(hist)
	for i := range fast {
		fast[i].Train(trained)
		slow[i].Train(trained)
	}
	lastDay := &predict.LastDay{}
	lastDay.Train(trained)

	windows := []sim.Window{
		{Start: cut, End: cut + 3*time.Hour},                                  // hour-aligned
		{Start: cut + 30*time.Minute, End: cut + 2*time.Hour},                 // misaligned start
		{Start: cut + 5*time.Hour, End: cut + 5*time.Hour + 100*time.Minute},  // misaligned end
		{Start: cut + sim.Day, End: cut + sim.Day + 24*time.Hour},             // day-long
		{Start: cut + 7*time.Hour + time.Nanosecond, End: cut + 10*time.Hour}, // off by a tick
	}
	for m := 0; m < tr.Machines; m++ {
		id := trace.MachineID(m)
		for _, w := range windows {
			for i, f := range fast {
				if pf, ps := f.PredictCount(id, w), slow[i].PredictCount(id, w); pf != ps {
					t.Fatalf("%s machine %d window %v: indexed %v, reference %v", f.Name(), m, w, pf, ps)
				}
				if sf, ss := f.PredictSurvival(id, w), slow[i].PredictSurvival(id, w); sf != ss {
					t.Fatalf("%s machine %d window %v survival: indexed %v, reference %v", f.Name(), m, w, sf, ss)
				}
			}
			prev := sim.Window{Start: w.Start - sim.Day, End: w.End - sim.Day}
			if got, want := lastDay.PredictCount(id, w), float64(LinearOccurrencesInWindow(hist, id, prev)); got != want {
				t.Fatalf("last-day machine %d window %v: indexed %v, linear %v", m, w, got, want)
			}
		}
	}
}

// TestPastWindowMemo holds the memoized same-window predictors to the naive
// reference wherever a window falls: inside the trained span, straddling
// its end, after a mid-day cut on the cut's own day, on the first day after
// and weeks after (where a shape answered once is answered from the memo),
// misaligned or across midnight, for absent machines, and with the field
// the answer reads, HistoryWindow's Trim, changed from day to day. Each predictor is retrained on a longer prefix and
// must then serve nothing it memoized from the shorter one. What the memo
// holds — emptied by Train, filled by these windows, kept to its caps — is
// pinned inside internal/predict by TestPastWindowMemoBookkeeping.
func TestPastWindowMemo(t *testing.T) {
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 40
	cfg.Seed = 2006
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hws := []*predict.HistoryWindow{{}, {Trim: 0.1}, {}}
	trims := []float64{0, 0.1, 0.25}
	ewma := &predict.EWMADaily{}
	machines := []trace.MachineID{0, 1, 2, 3, -1}
	shapes := []sim.Window{
		{Start: 9 * time.Hour, End: 12 * time.Hour},
		{Start: 9 * time.Hour, End: 10 * time.Hour},
		{Start: 90 * time.Minute, End: 3*time.Hour + 7*time.Minute},
		{Start: 23*time.Hour + 30*time.Minute, End: sim.Day + time.Hour},
	}
	for _, cut := range []sim.Time{17 * sim.Day, 17*sim.Day + 5*time.Hour, 24 * sim.Day} {
		hist := tr.Before(cut)
		trained := predict.NewTraceHistory(hist)
		for _, h := range hws {
			h.Train(trained)
		}
		ewma.Train(trained)
		// Day -3 is inside the span; day 0 is the cut's own day, the first
		// after it when the cut is at midnight.
		var windows []sim.Window
		cutDay := sim.Time(tr.Calendar.DayIndex(cut)) * sim.Day
		for _, day := range []sim.Time{-3, 0, 1, 2, 3, 4, 5, 6, 7, 13, 14, 21, 30} {
			for _, s := range shapes {
				windows = append(windows, sim.Window{Start: cutDay + day*sim.Day + s.Start, End: cutDay + day*sim.Day + s.End})
			}
		}
		windows = append(windows, sim.Window{Start: cut - time.Hour, End: cut + 2*time.Hour}) // straddling
		for i, w := range windows {
			hws[2].Trim = trims[i/len(shapes)%len(trims)]
			for _, m := range machines {
				for _, h := range hws {
					wantCount, wantSurv := NaiveHistoryWindow(hist, m, w, h.Trim)
					if c, s := h.PredictCount(m, w), h.PredictSurvival(m, w); c != wantCount || s != wantSurv {
						t.Fatalf("cut %v %s(trim %v) machine %d window %v: (%v, %v), reference (%v, %v)",
							cut, h.Name(), h.Trim, m, w, c, s, wantCount, wantSurv)
					}
				}
				wantCount, wantSurv := NaiveEWMADaily(hist, m, w)
				if c, s := ewma.PredictCount(m, w), ewma.PredictSurvival(m, w); c != wantCount || s != wantSurv {
					t.Fatalf("cut %v ewma machine %d window %v: (%v, %v), reference (%v, %v)",
						cut, m, w, c, s, wantCount, wantSurv)
				}
			}
		}
	}
}
