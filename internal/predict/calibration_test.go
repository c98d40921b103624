package predict

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestWindowSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	mk := func() Predictor { return &HistoryWindow{Trim: 0.1} }
	windows := []time.Duration{time.Hour, 3 * time.Hour, 6 * time.Hour, 12 * time.Hour}
	scores, err := WindowSensitivity(tr, mk, windows, EvalConfig{TrainDays: 28})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("got %d scores", len(scores))
	}
	// The sweep shares one truth and one training history; each score is
	// still the one a separate Evaluate of that window gives.
	for i, w := range windows {
		ev, err := Evaluate(tr, []Predictor{mk()}, EvalConfig{TrainDays: 28, Window: w})
		if err != nil {
			t.Fatal(err)
		}
		want := ev.Scores[0]
		want.Name += "@" + w.String()
		if !reflect.DeepEqual(scores[i], want) {
			t.Errorf("window %v: sweep scores %+v, Evaluate %+v", w, scores[i], want)
		}
	}
	// Longer windows contain more events, so the absolute count error
	// grows with the window — monotonically within tolerance.
	for i := 1; i < len(scores); i++ {
		if scores[i].MAE < scores[i-1].MAE*0.8 {
			t.Errorf("MAE should grow with window: %v then %v",
				scores[i-1].MAE, scores[i].MAE)
		}
	}
	// Every window length must stay better than a coin flip on failures.
	for _, s := range scores {
		if s.Brier >= 0.25 {
			t.Errorf("%s: Brier %v should beat a coin flip", s.Name, s.Brier)
		}
	}
	if out := FormatWindowSensitivity(scores); !strings.Contains(out, "@1h0m0s") {
		t.Errorf("format missing window labels:\n%s", out)
	}
	if _, err := WindowSensitivity(tr, func() Predictor { return &HistoryWindow{} }, nil, EvalConfig{}); err == nil {
		t.Error("empty window list accepted")
	}
}

func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := testbedTrace(t)
	bins, err := Calibration(tr, &HistoryWindow{Trim: 0.1},
		EvalConfig{TrainDays: 28, Window: 3 * time.Hour}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 10 {
		t.Fatalf("got %d bins", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Count > 0 {
			if b.Predicted < b.Lo-1e-9 || b.Predicted > b.Hi+1e-9 {
				t.Errorf("bin [%v,%v): mean prediction %v outside bin", b.Lo, b.Hi, b.Predicted)
			}
			if b.Observed < 0 || b.Observed > 1 {
				t.Errorf("observed frequency %v outside [0,1]", b.Observed)
			}
		}
	}
	if total == 0 {
		t.Fatal("no test windows binned")
	}
	// The paper predictor should be reasonably calibrated.
	if ece := CalibrationError(bins); ece > 0.15 {
		t.Errorf("expected calibration error %v, want < 0.15\n%s", ece, FormatCalibration(bins))
	}
	if s := FormatCalibration(bins); !strings.Contains(s, "calibration error") {
		t.Error("format missing ECE")
	}
}

func TestCalibrationValidation(t *testing.T) {
	tr := periodicTrace(7, 1)
	if _, err := Calibration(tr, &HistoryWindow{}, EvalConfig{TrainDays: 30, Window: time.Hour}, 10); err == nil {
		t.Error("training beyond the trace accepted")
	}
	// bins <= 0 defaults rather than failing.
	bins, err := Calibration(tr, &HistoryWindow{}, EvalConfig{TrainDays: 5, Window: time.Hour}, -3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 10 {
		t.Errorf("default bins = %d, want 10", len(bins))
	}
	// A NaN survival is an error naming where it came from, not a bin.
	_, err = Calibration(tr, &nanPredictor{}, EvalConfig{TrainDays: 5, Window: time.Hour}, 10)
	if err == nil || !strings.Contains(err.Error(), "nan predicts a NaN survival for machine 0 in window") {
		t.Errorf("NaN survival: err %v", err)
	}
}

// nanPredictor answers every survival with NaN, the undefined prediction.
type nanPredictor struct{}

func (*nanPredictor) Name() string                                        { return "nan" }
func (*nanPredictor) Train(*TraceHistory)                                 {}
func (*nanPredictor) PredictCount(trace.MachineID, sim.Window) float64    { return 0 }
func (*nanPredictor) PredictSurvival(trace.MachineID, sim.Window) float64 { return math.NaN() }

func TestCalibrationErrorEmpty(t *testing.T) {
	if CalibrationError(nil) != 0 {
		t.Error("empty diagram should have zero ECE")
	}
}
