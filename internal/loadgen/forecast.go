package loadgen

import (
	"fmt"
	"time"

	"repro/internal/forecast"
	"repro/internal/gsched"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// ForecastConfig parameterizes one proactive-vs-reactive replay
// evaluation: a fixed-seed testbed fleet trace is generated, its training
// prefix is streamed event-by-event into the online forecaster, and the
// same guest-job stream is then replayed twice — once under the reactive
// baseline, once with forecast-driven checkpoint/migrate reviews on top of
// the identical placement policy. Zero fields take defaults.
type ForecastConfig struct {
	// Machines and Days size the synthetic fleet trace (default 16 x 28).
	Machines int
	Days     int
	// TrainDays is the trace prefix fed to the forecaster; guest jobs
	// arrive only in the remaining test period (default 14).
	TrainDays int
	// Jobs is the guest-job count (default 150); JobWork its CPU-time
	// range (default 2-6 h).
	Jobs    int
	JobWork [2]time.Duration
	// Checkpoint is the periodic checkpoint cadence both runs share, so
	// the baseline is a real reactive system, not a strawman that restarts
	// from scratch (default 1 h).
	Checkpoint time.Duration
	// Seed fixes the trace and job stream (default 1).
	Seed int64
	// MinWasteReduction is the acceptance gate: the proactive run must
	// waste at least this fraction less guest CPU time than the reactive
	// baseline (default 0.10).
	MinWasteReduction float64
	// Proactive overrides the review knobs (zero = DefaultProactiveConfig).
	Proactive gsched.ProactiveConfig
	// Obs, when set, receives the proactive run's counters and forecast
	// latency histogram (gsched_proactive_*, gsched_forecast_latency_seconds).
	Obs *obs.Registry
}

func (c ForecastConfig) withDefaults() ForecastConfig {
	if c.Machines == 0 {
		c.Machines = 16
	}
	if c.Days == 0 {
		c.Days = 28
	}
	if c.TrainDays == 0 {
		c.TrainDays = 14
	}
	if c.Jobs == 0 {
		c.Jobs = 150
	}
	if c.JobWork[1] == 0 {
		c.JobWork = [2]time.Duration{2 * time.Hour, 6 * time.Hour}
	}
	if c.Checkpoint == 0 {
		c.Checkpoint = time.Hour
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinWasteReduction == 0 {
		c.MinWasteReduction = 0.10
	}
	if c.Proactive.CheckEvery == 0 {
		// Fleet traces are noisier than the pure recurring-outage
		// benchmarks gsched's defaults target, so the evaluation reviews at
		// a conservative survival floor: checkpoint whenever the horizon
		// forecast shows meaningful risk, migrate only on a clear margin.
		c.Proactive = gsched.DefaultProactiveConfig()
		c.Proactive.SurvivalFloor = 0.95
	}
	return c
}

// Validate checks the configuration without applying defaults.
func (c ForecastConfig) Validate() error {
	if c.Machines < 0 || c.Days < 0 || c.TrainDays < 0 || c.Jobs < 0 {
		return fmt.Errorf("loadgen: negative forecast evaluation sizes")
	}
	if c.TrainDays > 0 && c.Days > 0 && c.TrainDays >= c.Days {
		return fmt.Errorf("loadgen: training period (%d days) consumes the %d-day trace", c.TrainDays, c.Days)
	}
	if c.MinWasteReduction < 0 || c.MinWasteReduction > 1 {
		return fmt.Errorf("loadgen: waste-reduction gate %g outside [0, 1]", c.MinWasteReduction)
	}
	return nil
}

// PolicyOutcome is one run's side of the comparison.
type PolicyOutcome struct {
	Policy           string  `json:"policy"`
	Completed        int     `json:"completed"`
	Unfinished       int     `json:"unfinished"`
	Failures         int     `json:"failures"`
	WastedCPUSeconds float64 `json:"wasted_cpu_seconds"`
	MeanResponseSec  float64 `json:"mean_response_seconds"`
}

func outcome(r gsched.Result) PolicyOutcome {
	return PolicyOutcome{
		Policy:           r.Policy,
		Completed:        r.Completed,
		Unfinished:       r.Unfinished,
		Failures:         r.TotalFailures,
		WastedCPUSeconds: r.WastedWork.Seconds(),
		MeanResponseSec:  r.MeanResponse.Seconds(),
	}
}

// ForecastResult is the outcome of one RunForecast evaluation.
type ForecastResult struct {
	Machines  int `json:"machines"`
	Days      int `json:"days"`
	TrainDays int `json:"train_days"`
	Jobs      int `json:"jobs"`
	// OnlineEvents is how many unavailability events the online forecaster
	// ingested from the training prefix.
	OnlineEvents int64         `json:"online_events"`
	Reactive     PolicyOutcome `json:"reactive"`
	Proactive    PolicyOutcome `json:"proactive"`
	// WasteReduction is 1 - proactive/reactive wasted CPU seconds.
	WasteReduction  float64 `json:"waste_reduction"`
	Checkpoints     int     `json:"checkpoints"`
	Migrations      int     `json:"migrations"`
	SavedCPUSeconds float64 `json:"saved_cpu_seconds"`
	// Violations lists every acceptance gate the run missed (empty = pass).
	Violations []string `json:"violations,omitempty"`
}

// RunForecast replays a fixed-seed fleet trace through the online
// forecaster and compares forecast-driven proactive checkpoint/migrate
// scheduling against the reactive baseline on an identical job stream.
// Gate misses are reported in Violations, not as an error; errors mean the
// evaluation itself could not run or was vacuous.
func RunForecast(cfg ForecastConfig) (*ForecastResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	tcfg := testbed.DefaultConfig()
	tcfg.Machines = cfg.Machines
	tcfg.Days = cfg.Days
	tcfg.Seed = cfg.Seed
	tr, err := testbed.Run(tcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: forecast trace generation: %w", err)
	}
	trainEnd := tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day

	// Stream the training prefix into the online forecaster, exactly as a
	// live deployment would see it arrive: one event at a time, then the
	// clock advanced to the end of the training period.
	on, err := forecast.New(forecast.Config{
		Calendar: tr.Calendar,
		Machines: tr.Machines,
		Start:    tr.Span.Start,
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range tr.Events {
		if ev.Start >= trainEnd {
			break
		}
		on.ObserveEvent(ev)
	}
	on.AdvanceTo(trainEnd)
	if on.Events() == 0 {
		return nil, fmt.Errorf("loadgen: training prefix produced no events; the comparison is vacuous")
	}

	// Both runs place with the same offline-trained predictive policy; the
	// proactive run's reviews consume the *online* forecasts, so the
	// comparison isolates what the forecast-driven loop adds.
	gcfg := gsched.Config{
		Jobs:       cfg.Jobs,
		JobWork:    cfg.JobWork,
		TrainDays:  cfg.TrainDays,
		Checkpoint: cfg.Checkpoint,
		Seed:       cfg.Seed,
	}
	pol := gsched.TrainedPredictive(tr, gcfg)
	reactive, err := gsched.Simulate(tr, pol, gcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: reactive baseline: %w", err)
	}
	pro := cfg.Proactive
	pro.Metrics = cfg.Obs
	proactive, err := gsched.SimulateProactive(tr, pol, gsched.ForecastEstimator{F: on}, gcfg, pro)
	if err != nil {
		return nil, fmt.Errorf("loadgen: proactive run: %w", err)
	}
	if reactive.WastedWork == 0 {
		return nil, fmt.Errorf("loadgen: reactive baseline wasted nothing; the comparison is vacuous")
	}

	res := &ForecastResult{
		Machines: cfg.Machines, Days: cfg.Days, TrainDays: cfg.TrainDays, Jobs: cfg.Jobs,
		OnlineEvents:    on.Events(),
		Reactive:        outcome(reactive),
		Proactive:       outcome(proactive),
		WasteReduction:  1 - proactive.WastedWork.Seconds()/reactive.WastedWork.Seconds(),
		Checkpoints:     proactive.Checkpoints,
		Migrations:      proactive.Migrations,
		SavedCPUSeconds: proactive.SavedWork.Seconds(),
	}
	if res.WasteReduction < cfg.MinWasteReduction {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"waste reduction %.1f%% below the %.1f%% gate (proactive %.0fs vs reactive %.0fs wasted)",
			100*res.WasteReduction, 100*cfg.MinWasteReduction,
			res.Proactive.WastedCPUSeconds, res.Reactive.WastedCPUSeconds))
	}
	if proactive.Completed < reactive.Completed {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"proactive completed %d jobs, reactive %d — throughput lost",
			proactive.Completed, reactive.Completed))
	}
	return res, nil
}
