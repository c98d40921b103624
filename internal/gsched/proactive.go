package gsched

import (
	"fmt"
	"math"
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProactiveConfig controls forecast-driven checkpoint-or-migrate reviews:
// a running job periodically forecasts its machine's survival over the
// next Horizon and, when the forecast drops below SurvivalFloor, acts
// *before* the predicted unavailability window — migrating when a clearly
// safer machine exists, checkpointing in place otherwise. This is the
// proactive loop the paper's predictability findings motivate: S3/S4/S5
// windows recur at the same clock hours, so an online forecaster sees
// them coming.
type ProactiveConfig struct {
	// CheckEvery is the review cadence.
	CheckEvery time.Duration
	// Horizon is how far ahead each review forecasts (capped at the job's
	// remaining work).
	Horizon time.Duration
	// SurvivalFloor triggers action when the current machine's horizon
	// survival forecast falls below it. An undefined (NaN) forecast also
	// triggers — no forecast is no reassurance.
	SurvivalFloor float64
	// CheckpointCost is the pause to write one checkpoint.
	CheckpointCost time.Duration
	// MigrateDelay is the cost of one migration (state transfer and
	// resubmission), as in MigrationConfig.
	MigrateDelay time.Duration
	// MigrateMargin is how much better the best alternative's forecast
	// must be before migrating beats checkpointing in place.
	MigrateMargin float64
}

// DefaultProactiveConfig reviews every 30 minutes with a 2-hour horizon,
// acts below 60% survival, pays 30 seconds per checkpoint and 2 minutes
// per migration, and migrates on a 15-point advantage.
func DefaultProactiveConfig() ProactiveConfig {
	return ProactiveConfig{
		CheckEvery:     30 * time.Minute,
		Horizon:        2 * time.Hour,
		SurvivalFloor:  0.6,
		CheckpointCost: 30 * time.Second,
		MigrateDelay:   2 * time.Minute,
		MigrateMargin:  0.15,
	}
}

// Validate reports configuration errors.
func (p ProactiveConfig) Validate() error {
	if p.CheckEvery <= 0 {
		return fmt.Errorf("gsched: proactive check interval must be positive, got %v", p.CheckEvery)
	}
	if p.Horizon <= 0 {
		return fmt.Errorf("gsched: proactive horizon must be positive, got %v", p.Horizon)
	}
	if p.SurvivalFloor < 0 || p.SurvivalFloor > 1 {
		return fmt.Errorf("gsched: survival floor %v outside [0,1]", p.SurvivalFloor)
	}
	if p.CheckpointCost < 0 || p.MigrateDelay < 0 {
		return fmt.Errorf("gsched: negative proactive costs")
	}
	if p.MigrateMargin < 0 || p.MigrateMargin > 1 {
		return fmt.Errorf("gsched: migrate margin %v outside [0,1]", p.MigrateMargin)
	}
	return nil
}

// ForecastSource is the minimal surface the proactive loop needs from a
// forecaster: a survival forecast for one machine over one window. Both
// the online forecaster (*forecast.Online) and every offline
// predict.Predictor satisfy it.
type ForecastSource interface {
	PredictSurvival(m trace.MachineID, w sim.Window) float64
}

// ForecastEstimator adapts a ForecastSource to the SurvivalEstimator the
// migrating and proactive runners consume — this is how an online
// forecaster plugs into SimulateProactive.
type ForecastEstimator struct{ F ForecastSource }

// Survival implements SurvivalEstimator.
func (e ForecastEstimator) Survival(now sim.Time, work time.Duration, m trace.MachineID) float64 {
	return e.F.PredictSurvival(m, sim.Window{Start: now, End: now + work})
}

// SimulateProactive replays the job stream with forecast-driven
// checkpoint/migrate reviews on top of the given policy: after every
// CheckEvery of progress the job forecasts its machine's survival over the
// next Horizon, and when that falls below SurvivalFloor it first pins its
// progress with a checkpoint — cheap, and it bounds the loss no matter
// where the job runs next or how wrong the forecast turns out to be — and
// then additionally moves when a clearly safer machine exists. Placement
// and failure rules match Simulate exactly (same job stream, same
// ground truth), so its Result is directly comparable against the
// reactive baseline's: the difference is only what the reviews save.
func SimulateProactive(truth *predict.TraceHistory, policy Policy, est SurvivalEstimator, cfg Config, pro ProactiveConfig) (Result, error) {
	if err := pro.Validate(); err != nil {
		return Result{}, err
	}
	rv := &review{
		suffix:         "+proactive",
		every:          pro.CheckEvery,
		checkpointCost: pro.CheckpointCost,
		migrateDelay:   pro.MigrateDelay,
		decide: func(now sim.Time, remaining time.Duration, m trace.MachineID) (bool, trace.MachineID) {
			horizon := min(pro.Horizon, remaining)
			cur := est.Survival(now, horizon, m)
			// An undefined (NaN) forecast also triggers: no forecast is no
			// reassurance.
			danger := math.IsNaN(cur) || cur < pro.SurvivalFloor
			best, bestS := m, math.NaN()
			if danger {
				best, bestS = pickBest(truth.Machines(), func(id trace.MachineID) float64 {
					return est.Survival(now, horizon, id)
				})
			}
			if !math.IsNaN(bestS) && (math.IsNaN(cur) || bestS-cur >= pro.MigrateMargin) {
				return true, best
			}
			return danger, m
		},
	}
	return simulate(truth, policy, cfg, rv)
}
