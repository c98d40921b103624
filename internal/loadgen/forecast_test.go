package loadgen

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunForecastEvaluation is the acceptance property behind `make
// forecast-smoke`: on a fixed-seed replayed fleet trace, forecast-driven
// proactive checkpoint/migrate wastes at least the gated fraction less
// guest CPU time than the reactive baseline without losing throughput.
func TestRunForecastEvaluation(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunForecast(ForecastConfig{
		Machines: 8, Days: 14, TrainDays: 7, Jobs: 60, Seed: 1, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("fixed-seed evaluation missed its gates: %v", res.Violations)
	}
	if res.WasteReduction < 0.10 {
		t.Errorf("waste reduction %.3f below the 10%% acceptance bar", res.WasteReduction)
	}
	if res.Proactive.Completed < res.Reactive.Completed {
		t.Errorf("proactive completed %d, reactive %d", res.Proactive.Completed, res.Reactive.Completed)
	}
	if res.Checkpoints == 0 || res.OnlineEvents == 0 {
		t.Errorf("proactive loop inactive: %+v", res)
	}
	// The proactive run's counters and forecast latency histogram landed
	// in the supplied registry.
	var sawCkpt, sawLatency bool
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "gsched_proactive_checkpoints_total":
			sawCkpt = true
		case "gsched_forecast_latency_seconds":
			sawLatency = true
		}
	}
	if !sawCkpt || !sawLatency {
		t.Errorf("proactive metrics missing from registry: checkpoints %v latency %v", sawCkpt, sawLatency)
	}
}

// TestRunForecastPhaseSLO pins that the forecast p99 objective is wired
// into the violation check.
func TestRunForecastPhaseSLO(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 100, Shards: 1, DiscoverOps: 2, Concurrency: 2, ForecastOps: 3,
		SLO: SLO{ForecastP99: time.Nanosecond}, // impossible on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("impossible forecast SLO not reported as violated")
	}
}

// TestForecastConfigValidation pins the evaluation's config errors.
func TestForecastConfigValidation(t *testing.T) {
	cases := []ForecastConfig{
		{Machines: -1},
		{Days: 10, TrainDays: 10},
		{MinWasteReduction: 1.5},
	}
	for _, c := range cases {
		if _, err := RunForecast(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := (Config{Nodes: 10, ForecastOps: -1}).Validate(); err == nil {
		t.Error("negative forecast ops accepted")
	}
}
