package gsched

import (
	"math"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scoreTable is a stub scorer: fixed per-machine survival, NaN included.
type scoreTable []float64

func (s scoreTable) PredictSurvival(m trace.MachineID, _ sim.Window) float64 {
	if m < 0 || int(m) >= len(s) {
		return math.NaN()
	}
	return s[m]
}

func (s scoreTable) PredictCount(trace.MachineID, sim.Window) float64 { return 0 }
func (s scoreTable) Name() string                                     { return "score-table" }
func (s scoreTable) Train(*predict.TraceHistory)                      {}

func TestPickBest(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name   string
		scores scoreTable
		want   trace.MachineID
		wantS  float64
	}{
		{"plain max", scoreTable{0.1, 0.9, 0.5}, 1, 0.9},
		{"tie goes to lowest id", scoreTable{0.7, 0.7, 0.7}, 0, 0.7},
		{"nan never wins over a defined score", scoreTable{nan, 0.01, nan}, 1, 0.01},
		{"nan first does not poison the seed", scoreTable{nan, nan, 0.3, 0.8}, 3, 0.8},
		{"all nan falls back to machine 0", scoreTable{nan, nan, nan}, 0, nan},
		{"late tie keeps the earlier machine", scoreTable{0.2, 0.8, 0.8}, 1, 0.8},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, gotS := pickBest(len(tc.scores), func(m trace.MachineID) float64 {
				return tc.scores[m]
			})
			if got != tc.want {
				t.Errorf("pickBest machine = %d, want %d", got, tc.want)
			}
			if math.IsNaN(tc.wantS) != math.IsNaN(gotS) || (!math.IsNaN(tc.wantS) && gotS != tc.wantS) {
				t.Errorf("pickBest score = %v, want %v", gotS, tc.wantS)
			}
		})
	}
}

// TestPredictiveNaNPredictor is the regression for the latent Pick bug: a
// predictor answering NaN for some machines must never have a NaN machine
// chosen over a defined one, and an all-NaN fleet must yield a
// deterministic machine 0, not an arbitrary iteration artifact.
func TestPredictiveNaNPredictor(t *testing.T) {
	nan := math.NaN()
	p := &Predictive{P: scoreTable{nan, 0.2, nan, 0.4}}
	if got := p.Pick(0, time.Hour, 4); got != 3 {
		t.Errorf("Pick = %d, want 3 (highest defined score)", got)
	}
	p = &Predictive{P: scoreTable{nan, nan, nan}}
	if got := p.Pick(0, time.Hour, 3); got != 0 {
		t.Errorf("all-NaN Pick = %d, want deterministic 0", got)
	}
	// Deterministic across repeated calls.
	p = &Predictive{P: scoreTable{0.5, 0.5, 0.5}}
	first := p.Pick(0, time.Hour, 3)
	for i := 0; i < 5; i++ {
		if got := p.Pick(0, time.Hour, 3); got != first {
			t.Fatalf("tied Pick flapped: %d then %d", first, got)
		}
	}
	if first != 0 {
		t.Errorf("tied Pick = %d, want lowest id 0", first)
	}
}

// pinPolicy always places on one machine — it isolates the migration
// review's own decision-making.
type pinPolicy struct{ m trace.MachineID }

func (p pinPolicy) Name() string                                      { return "pin" }
func (p pinPolicy) Pick(sim.Time, time.Duration, int) trace.MachineID { return p.m }
func (p pinPolicy) ObserveFailure(trace.MachineID, sim.Time)          {}

// TestMigratingNaNDoesNotPin is the regression for the latent migrate
// bug: when the current machine's survival estimate is NaN, every
// comparison against it is false, which used to pin the job there
// forever. A defined alternative must win.
func TestMigratingNaNDoesNotPin(t *testing.T) {
	tr := trace.New(sim.Window{End: 20 * sim.Day}, sim.Calendar{}, 2)
	cfg := Config{Jobs: 10, JobWork: [2]time.Duration{2 * time.Hour, 3 * time.Hour}, TrainDays: 7, Seed: 11}
	est := ForecastEstimator{F: scoreTable{math.NaN(), 0.9}}
	res, err := SimulateMigrating(tr, pinPolicy{m: 0}, est, cfg, DefaultMigrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatalf("NaN current estimate pinned every job: %+v", res)
	}
	if res.Completed != 10 {
		t.Fatalf("completed %d of 10 on a clean trace", res.Completed)
	}
}

// predictableTrace fails every machine daily at 09:00–11:00 — the paper's
// recurring-clock-window unavailability in its purest form. No placement
// avoids it; only acting before 09:00 helps.
func predictableTrace(machines int) *trace.Trace {
	tr := trace.New(sim.Window{End: 30 * sim.Day}, sim.Calendar{}, machines)
	for d := 0; d < 30; d++ {
		for m := 0; m < machines; m++ {
			start := sim.Time(d)*sim.Day + 9*time.Hour
			tr.Add(trace.Event{
				Machine: trace.MachineID(m),
				Start:   start,
				End:     start + 2*time.Hour,
				State:   availability.S3,
			})
		}
	}
	tr.Sort()
	return tr
}

// proactiveSetup builds the shared reactive-vs-proactive comparison:
// identical trace, config, and predictor.
func proactiveSetup(t *testing.T) (*trace.Trace, Config, *Predictive) {
	t.Helper()
	tr := predictableTrace(3)
	cfg := Config{
		Jobs:      40,
		JobWork:   [2]time.Duration{4 * time.Hour, 8 * time.Hour},
		TrainDays: 14,
		Seed:      9,
	}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(tr.Span.Start + 14*sim.Day)))
	return tr, cfg, &Predictive{P: hw}
}

// TestProactiveBeatsReactive is the headline property: on a trace whose
// unavailability recurs at fixed clock windows, forecast-driven
// checkpoints cut wasted work versus the reactive baseline without
// losing throughput.
func TestProactiveBeatsReactive(t *testing.T) {
	tr, cfg, pol := proactiveSetup(t)

	reactive, err := Simulate(tr, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proactive, err := SimulateProactive(tr, pol, pol, cfg, DefaultProactiveConfig())
	if err != nil {
		t.Fatal(err)
	}

	if reactive.WastedWork == 0 {
		t.Fatal("reactive baseline wasted nothing; the comparison is vacuous")
	}
	if proactive.Checkpoints == 0 {
		t.Fatal("proactive run never checkpointed on a predictable trace")
	}
	if proactive.WastedWork >= reactive.WastedWork {
		t.Errorf("proactive wasted %v, reactive %v — no saving", proactive.WastedWork, reactive.WastedWork)
	}
	if proactive.Completed < reactive.Completed {
		t.Errorf("proactive completed %d, reactive %d — throughput lost", proactive.Completed, reactive.Completed)
	}
	if proactive.SavedWork == 0 {
		t.Error("SavedWork not accounted despite checkpoints")
	}
}

// TestProactiveMetricsNeutral pins that instrumentation changes nothing:
// the same run with and without a metrics registry yields identical
// results, and the registry sees the activity.
func TestProactiveMetricsNeutral(t *testing.T) {
	tr, cfg, pol := proactiveSetup(t)

	plain, err := SimulateProactive(tr, pol, pol, cfg, DefaultProactiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pro := DefaultProactiveConfig()
	pro.Metrics = reg
	metered, err := SimulateProactive(tr, pol, pol, cfg, pro)
	if err != nil {
		t.Fatal(err)
	}
	if plain != metered {
		t.Errorf("metrics changed the result:\nplain   %+v\nmetered %+v", plain, metered)
	}
	if got := reg.Counter("gsched_proactive_checkpoints_total", "").Value(); got != uint64(metered.Checkpoints) {
		t.Errorf("checkpoint counter %d, result %d", got, metered.Checkpoints)
	}
	if got := reg.Histogram("gsched_forecast_latency_seconds", "", obs.ExpBuckets(1e-7, 4, 12)).Count(); got == 0 {
		t.Error("forecast latency histogram saw no reviews")
	}
}

// TestProactiveConfigValidation rejects the malformed corners.
func TestProactiveConfigValidation(t *testing.T) {
	bad := []ProactiveConfig{
		{},
		{CheckEvery: time.Hour},
		{CheckEvery: time.Hour, Horizon: time.Hour, SurvivalFloor: 1.5},
		{CheckEvery: time.Hour, Horizon: time.Hour, CheckpointCost: -1},
		{CheckEvery: time.Hour, Horizon: time.Hour, MigrateMargin: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := DefaultProactiveConfig().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}
