package loadgen

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/forecast"
	"repro/internal/gsched"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The replay's fixed shape: a 16-machine, 28-day fleet trace whose first
// 14 days train the forecaster, then 150 guest jobs of 2-6 h CPU time
// each, checkpointed hourly in both runs so the baseline is a real
// reactive system, not a strawman that restarts from scratch. The
// proactive run must waste at least minWasteReduction less guest CPU time.
const (
	replayMachines    = 16
	replayDays        = 28
	replayTrainDays   = 14
	replayJobs        = 150
	replayCheckpoint  = time.Hour
	minWasteReduction = 0.10
)

var replayJobWork = [2]time.Duration{2 * time.Hour, 6 * time.Hour}

// ForecastConfig selects one proactive-vs-reactive replay evaluation: a
// fixed-seed testbed fleet trace is generated, its training prefix is
// streamed event-by-event into the online forecaster, and the same
// guest-job stream is then replayed twice — once under the reactive
// baseline, once with forecast-driven checkpoint/migrate reviews on top of
// the identical placement policy.
type ForecastConfig struct {
	// Seed fixes the trace and job stream (default 1).
	Seed int64
}

func (c ForecastConfig) withDefaults() ForecastConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PolicyOutcome is one run's side of the comparison.
type PolicyOutcome struct {
	Policy           string
	Completed        int
	Unfinished       int
	Failures         int
	WastedCPUSeconds float64
	MeanResponseSec  float64
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
	Machines  int
	Days      int
	TrainDays int
	Jobs      int
	// OnlineEvents is how many unavailability events the online forecaster
	// ingested from the training prefix.
	OnlineEvents int64
	Reactive     PolicyOutcome
	Proactive    PolicyOutcome
	// WasteReduction is 1 - proactive/reactive wasted CPU seconds.
	WasteReduction  float64
	Checkpoints     int
	Migrations      int
	SavedCPUSeconds float64
	// Violations lists every acceptance gate the run missed (empty = pass).
	Violations []string
}

// Format renders the evaluation: its shape, one row per run, and the
// reduction against its gate.
func (r *ForecastResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "forecast evaluation: %d machines x %d days (train %d), %d jobs, %d online events\n",
		r.Machines, r.Days, r.TrainDays, r.Jobs, r.OnlineEvents)
	for _, o := range []PolicyOutcome{r.Reactive, r.Proactive} {
		fmt.Fprintf(&b, "  %-40s completed %-4d failures %-4d wasted %8.0fs  mean-resp %8.0fs\n",
			o.Policy, o.Completed, o.Failures, o.WastedCPUSeconds, o.MeanResponseSec)
	}
	fmt.Fprintf(&b, "  waste reduction %.1f%% (gate %.1f%%), %d proactive checkpoints, %d migrations, %.0fs saved\n",
		100*r.WasteReduction, 100*minWasteReduction, r.Checkpoints, r.Migrations, r.SavedCPUSeconds)
	return b.String()
}

// RunForecast replays a fixed-seed fleet trace through the online
// forecaster and compares forecast-driven proactive checkpoint/migrate
// scheduling against the reactive baseline on an identical job stream.
// Gate misses are reported in Violations, not as an error; errors mean the
// evaluation itself could not run or was vacuous.
func RunForecast(cfg ForecastConfig) (*ForecastResult, error) {
	cfg = cfg.withDefaults()

	tcfg := testbed.DefaultConfig()
	tcfg.Machines = replayMachines
	tcfg.Days = replayDays
	tcfg.Seed = cfg.Seed
	tr, err := testbed.Run(tcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: forecast trace generation: %w", err)
	}
	trainEnd := tr.Span.Start + sim.Time(replayTrainDays)*sim.Day

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
		Jobs:       replayJobs,
		JobWork:    replayJobWork,
		TrainDays:  replayTrainDays,
		Checkpoint: replayCheckpoint,
		Seed:       cfg.Seed,
	}
	pol := gsched.TrainedPredictive(tr, gcfg)
	truth := predict.NewTraceHistory(tr)
	reactive, err := gsched.Simulate(truth, pol, gcfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: reactive baseline: %w", err)
	}
	// Fleet traces are noisier than the pure recurring-outage benchmarks
	// gsched's defaults target, so the evaluation reviews at a
	// conservative survival floor: checkpoint whenever the horizon forecast
	// shows meaningful risk, migrate only on a clear margin.
	pro := gsched.DefaultProactiveConfig()
	pro.SurvivalFloor = 0.95
	proactive, err := gsched.SimulateProactive(truth, pol, gsched.ForecastEstimator{F: on}, gcfg, pro)
	if err != nil {
		return nil, fmt.Errorf("loadgen: proactive run: %w", err)
	}
	if reactive.WastedWork == 0 {
		return nil, fmt.Errorf("loadgen: reactive baseline wasted nothing; the comparison is vacuous")
	}

	res := &ForecastResult{
		Machines: replayMachines, Days: replayDays, TrainDays: replayTrainDays, Jobs: replayJobs,
		OnlineEvents:    on.Events(),
		Reactive:        outcome(reactive),
		Proactive:       outcome(proactive),
		WasteReduction:  1 - proactive.WastedWork.Seconds()/reactive.WastedWork.Seconds(),
		Checkpoints:     proactive.Checkpoints,
		Migrations:      proactive.Migrations,
		SavedCPUSeconds: proactive.SavedWork.Seconds(),
	}
	if res.WasteReduction < minWasteReduction {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"waste reduction %.1f%% below the %.1f%% gate (proactive %.0fs vs reactive %.0fs wasted)",
			100*res.WasteReduction, 100*minWasteReduction,
			res.Proactive.WastedCPUSeconds, res.Reactive.WastedCPUSeconds))
	}
	if proactive.Completed < reactive.Completed {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"proactive completed %d jobs, reactive %d — throughput lost",
			proactive.Completed, reactive.Completed))
	}
	return res, nil
}
