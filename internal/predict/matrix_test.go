package predict_test

import (
	"testing"
	"time"

	"repro/internal/check"
	. "repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// naivePredictor adapts the reference estimators of internal/check (linear
// scans, their own day walk — no hourly matrix, no index, none of this
// package's code) to the Predictor interface.
type naivePredictor struct {
	name    string
	tr      *trace.Trace
	predict func(tr *trace.Trace, m trace.MachineID, w sim.Window) (count, survival float64)
}

func (n *naivePredictor) Name() string          { return n.name }
func (n *naivePredictor) Train(tr *trace.Trace) { n.tr = tr }
func (n *naivePredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _ := n.predict(n.tr, m, w)
	return count
}
func (n *naivePredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival := n.predict(n.tr, m, w)
	return survival
}

func naivePredictors() []Predictor {
	return []Predictor{
		&naivePredictor{name: "history-window", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveHistoryWindow(tr, m, w, 0, 0)
		}},
		&naivePredictor{name: "history-window(trimmed)", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveHistoryWindow(tr, m, w, 0.1, 0)
		}},
		&naivePredictor{name: "ewma-daily", predict: func(tr *trace.Trace, m trace.MachineID, w sim.Window) (float64, float64) {
			return check.NaiveEWMADaily(tr, m, w, 0)
		}},
	}
}

// TestHourlyMatrixScoresIdentical pins the acceptance criterion for the
// hourly-count acceleration: predictor scores through the matrix + index
// store must be bit-identical to the naive reference's, for both the
// default hour-aligned config and deliberately misaligned ones that force
// the index fallback.
func TestHourlyMatrixScoresIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := TestbedTrace(t)
	// Four machines: the reference scans every event once per history count.
	configs := []EvalConfig{
		{TrainDays: 28, Window: 3 * time.Hour, MaxMachines: 4},
		{TrainDays: 28, Window: 3 * time.Hour, Stride: 90 * time.Minute, MaxMachines: 4},
		{TrainDays: 21, Window: 100 * time.Minute, MaxMachines: 4},
	}
	for _, cfg := range configs {
		fast, err := Evaluate(tr, []Predictor{&HistoryWindow{}, &HistoryWindow{Trim: 0.1}, &EWMADaily{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Evaluate(tr, naivePredictors(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fast.Scores {
			if s := slow.Scores[i]; f != s {
				t.Errorf("config %+v: matrix scores %+v, reference scores %+v", cfg, f, s)
			}
		}
	}
}

// TestHourlyMatrixPredictionsIdentical compares raw predictions, not just
// aggregate scores, across aligned and misaligned windows.
func TestHourlyMatrixPredictionsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := TestbedTrace(t)
	cut := tr.Span.End - 14*24*time.Hour
	hist := tr.Before(cut)

	fast := []Predictor{&HistoryWindow{}, &HistoryWindow{Trim: 0.1}, &EWMADaily{}}
	slow := naivePredictors()
	for i := range fast {
		fast[i].Train(hist)
		slow[i].Train(hist)
	}
	lastDay := &LastDay{}
	lastDay.Train(hist)

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
					t.Fatalf("%s machine %d window %v: matrix %v, reference %v", f.Name(), m, w, pf, ps)
				}
				if sf, ss := f.PredictSurvival(id, w), slow[i].PredictSurvival(id, w); sf != ss {
					t.Fatalf("%s machine %d window %v survival: matrix %v, reference %v", f.Name(), m, w, sf, ss)
				}
			}
			prev := sim.Window{Start: w.Start - sim.Day, End: w.End - sim.Day}
			if got, want := lastDay.PredictCount(id, w), float64(check.LinearOccurrencesInWindow(hist, id, prev)); got != want {
				t.Fatalf("last-day machine %d window %v: matrix %v, linear %v", m, w, got, want)
			}
		}
	}
}
