package gsched

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMigrationConfigValidation(t *testing.T) {
	bad := []MigrationConfig{
		{CheckEvery: 0, Delay: time.Minute, Margin: 0.1},
		{CheckEvery: time.Hour, Delay: -1, Margin: 0.1},
		{CheckEvery: time.Hour, Delay: 0, Margin: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid migration config accepted", i)
		}
	}
	if err := DefaultMigrationConfig().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}

func TestMigratingOnCleanTraceMatchesPlain(t *testing.T) {
	tr := trace.New(sim.Window{End: 40 * sim.Day}, sim.Calendar{}, 4)
	cfg := Config{Jobs: 40, JobWork: [2]time.Duration{time.Hour, 2 * time.Hour}, TrainDays: 7, Seed: 3}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(7 * sim.Day)))
	pol := &Predictive{P: hw}
	res, err := SimulateMigrating(tr, pol, pol, cfg, DefaultMigrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFailures != 0 || res.WastedWork != 0 {
		t.Errorf("clean trace: %+v", res)
	}
	if res.MeanSlowdown < 0.99 || res.MeanSlowdown > 1.01 {
		t.Errorf("slowdown = %v, want 1.0 (no migrations on a uniform clean fleet)", res.MeanSlowdown)
	}
	if res.Migrations != 0 {
		t.Errorf("uniform clean fleet should trigger no migrations, got %d", res.Migrations)
	}
}

func TestMigrationEscapesHostileMachine(t *testing.T) {
	// Machine 0 is hostile only in the afternoon (hours 12-20, every day);
	// machine 1 is always clean. Jobs pinned to start on machine 0 should
	// migrate away before the afternoon trouble.
	tr := trace.New(sim.Window{End: 30 * sim.Day}, sim.Calendar{}, 2)
	for d := 0; d < 30; d++ {
		for h := 12; h < 20; h += 2 {
			start := sim.Time(d)*sim.Day + sim.Time(h)*time.Hour
			tr.Add(trace.Event{
				Machine: 0,
				Start:   start,
				End:     start + 30*time.Minute,
				State:   availability.S3,
			})
		}
	}
	tr.Sort()
	cfg := Config{Jobs: 80, JobWork: [2]time.Duration{5 * time.Hour, 8 * time.Hour}, TrainDays: 14, Seed: 9}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(14 * sim.Day)))
	pol := &Predictive{P: hw}

	plain, err := Simulate(tr, &pinZero{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := SimulateMigrating(tr, &pinZero{}, pol, cfg, MigrationConfig{
		CheckEvery: time.Hour, Delay: 2 * time.Minute, Margin: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mig.Migrations == 0 {
		t.Fatal("no migrations triggered despite a hostile afternoon machine")
	}
	if !(mig.TotalFailures < plain.TotalFailures) {
		t.Errorf("migration should cut failures: %d vs plain %d", mig.TotalFailures, plain.TotalFailures)
	}
	if !(mig.MeanSlowdown < plain.MeanSlowdown) {
		t.Errorf("migration should cut slowdown: %v vs plain %v", mig.MeanSlowdown, plain.MeanSlowdown)
	}
	if s := mig.Policy; s != "pin-0+migration" {
		t.Errorf("policy label = %q", s)
	}
}

// pinZero always starts jobs on machine 0, isolating migration's effect.
type pinZero struct{}

func (pinZero) Name() string                                      { return "pin-0" }
func (pinZero) Pick(sim.Time, time.Duration, int) trace.MachineID { return 0 }
func (pinZero) ObserveFailure(trace.MachineID, sim.Time)          {}

// TestMigratingWithoutReviewsMatchesSimulate pins "an identical job stream"
// for a stateful policy: when CheckEvery exceeds every job's work no review
// ever fires, so the migrating run must be Simulate exactly — which it was
// not while SimulateMigrating alone replayed the jobs in draw order rather
// than arrival order (LeastRecentlyFailed then saw failures out of time
// order and picked differently).
func TestMigratingWithoutReviewsMatchesSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := heterogeneousTrace(t)
	for _, cfg := range []Config{
		{Jobs: 200, TrainDays: 28, Seed: 11},
		{Jobs: 200, TrainDays: 28, Seed: 11, Checkpoint: 45 * time.Minute},
	} {
		want, err := Simulate(tr, &LeastRecentlyFailed{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.TotalFailures == 0 {
			t.Fatal("no failures: the policy's state never mattered")
		}
		mig := DefaultMigrationConfig()
		mig.CheckEvery = DefaultConfig().JobWork[1] + time.Hour
		got, err := SimulateMigrating(tr, &LeastRecentlyFailed{}, ForecastEstimator{F: &predict.GlobalRate{}}, cfg, mig)
		if err != nil {
			t.Fatal(err)
		}
		want.Policy = got.Policy
		if got != want {
			t.Errorf("checkpoint %v:\nmigrating %+v\n   plain %+v", cfg.Checkpoint, got, want)
		}
	}
}
