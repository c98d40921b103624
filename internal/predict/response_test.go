package predict

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// flatRatePredictor returns a constant hourly failure rate per machine.
type flatRatePredictor struct {
	rates map[trace.MachineID]float64
}

func (f *flatRatePredictor) Name() string        { return "flat" }
func (f *flatRatePredictor) Train(*TraceHistory) {}
func (f *flatRatePredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	return f.rates[m] * w.Duration().Hours()
}
func (f *flatRatePredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	return 1
}

func TestResponseEstimatorCleanMachine(t *testing.T) {
	e := &ResponseEstimator{P: &flatRatePredictor{rates: map[trace.MachineID]float64{}}, Seed: 1}
	got := e.Expected(0, 0, 3*time.Hour)
	if got != 3*time.Hour {
		t.Errorf("failure-free expected response = %v, want exactly the work", got)
	}
}

func TestResponseEstimatorOrdersMachinesByRate(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{
		0: 0.5, // one failure every 2 hours
		1: 0.05,
	}}
	e := &ResponseEstimator{P: p, Seed: 2, Samples: 400}
	bad := e.Expected(0, 0, 4*time.Hour)
	good := e.Expected(1, 0, 4*time.Hour)
	if !(good < bad) {
		t.Errorf("low-rate machine (%v) should beat high-rate (%v)", good, bad)
	}
	// The failure-prone estimate must exceed the pure work substantially.
	if bad < 5*time.Hour {
		t.Errorf("expected response on a 0.5/h machine = %v, want well above 4h", bad)
	}
}

func TestResponseEstimatorHorizonCensors(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{0: 10}} // hopeless
	e := &ResponseEstimator{P: p, Seed: 3, Samples: 50, Horizon: 2 * sim.Day}
	got := e.Expected(0, 0, 10*time.Hour)
	if got > 2*sim.Day {
		t.Errorf("estimate %v exceeds the horizon", got)
	}
	if got < sim.Day {
		t.Errorf("hopeless machine should censor near the horizon, got %v", got)
	}
}

func TestResponseEstimatorDeterministic(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{0: 0.2}}
	a := (&ResponseEstimator{P: p, Seed: 9}).Expected(0, 0, 5*time.Hour)
	b := (&ResponseEstimator{P: p, Seed: 9}).Expected(0, 0, 5*time.Hour)
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

func TestResponseEstimatorWithHistoryWindow(t *testing.T) {
	// Machine 0 fails every weekday at 10:00; a 4-hour job started at
	// 08:00 almost surely dies, while one started at 11:00 is safe, so the
	// expected response at 08:00 must be larger.
	tr := trace.New(sim.Window{End: 28 * sim.Day}, sim.Calendar{}, 1)
	for d := 0; d < 28; d++ {
		dayStart := sim.Time(d) * sim.Day
		if (sim.Calendar{}).DayType(dayStart) != sim.Weekday {
			continue
		}
		tr.Add(trace.Event{
			Machine: 0,
			Start:   dayStart + 10*time.Hour,
			End:     dayStart + 10*time.Hour + 10*time.Minute,
			State:   availability.S3,
		})
	}
	tr.Sort()
	hw := &HistoryWindow{}
	hw.Train(NewTraceHistory(tr))
	e := &ResponseEstimator{P: hw, Seed: 4, Samples: 300}
	day := sim.Time(28) * sim.Day // a Monday
	risky := e.Expected(0, day+8*time.Hour, 4*time.Hour)
	safe := e.Expected(0, day+11*time.Hour, 4*time.Hour)
	if !(safe < risky) {
		t.Errorf("post-failure start (%v) should beat pre-failure start (%v)", safe, risky)
	}
	if safe != 4*time.Hour {
		t.Errorf("safe window should complete in exactly 4h, got %v", safe)
	}
}
