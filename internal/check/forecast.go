package check

import (
	"fmt"
	"math"
	"time"

	"repro/internal/availability"
	"repro/internal/forecast"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// forecastTolerance bounds the forecast differential. The two stores run
// the same estimator (internal/predict) and the reference accumulates in
// the same order, so in practice all three agree bit-for-bit; the tolerance
// exists so the check states its contract (1e-9) rather than an accident
// of today's code layout.
const forecastTolerance = 1e-9

// checkOnlineForecastSeed is the forecasting leg of the testbed
// differential. The estimator maths exists once, so what it compares is
// the two stores that feed it and an independent reference: the seed's raw
// observation streams replayed through forecast.Online's detectors into
// its rings, predictors batch-trained on the recorded trace of the same
// streams (index + memos), and the naive oracle (linear scans, its own day
// walk). All three must agree — plain and trimmed history windows plus the
// EWMA daily model, over aligned and misaligned windows, for every machine
// in the fleet and for absent machine IDs.
func checkOnlineForecastSeed(cfg testbed.Config, tr *trace.Trace, res *Result) error {
	on, err := forecast.New(forecast.Config{
		Calendar: tr.Calendar,
		Machines: cfg.Machines,
		Detector: cfg.Detector,
		Start:    tr.Span.Start,
	})
	if err != nil {
		return fmt.Errorf("online forecaster: %w", err)
	}
	onTrim, err := forecast.New(forecast.Config{
		Calendar: tr.Calendar,
		Machines: cfg.Machines,
		Detector: cfg.Detector,
		Trim:     0.1,
		Start:    tr.Span.Start,
	})
	if err != nil {
		return fmt.Errorf("online trimmed forecaster: %w", err)
	}
	for id := 0; id < cfg.Machines; id++ {
		m := trace.MachineID(id)
		err := testbed.ObservationStream(cfg, m, func(obs availability.Observation) error {
			if err := on.Observe(m, obs); err != nil {
				return err
			}
			return onTrim.Observe(m, obs)
		})
		if err != nil {
			return fmt.Errorf("forecast observation stream machine %d: %w", id, err)
		}
	}
	on.AdvanceTo(tr.Span.End)
	onTrim.AdvanceTo(tr.Span.End)

	trained := predict.NewTraceHistory(tr)
	hw := &predict.HistoryWindow{}
	hw.Train(trained)
	hwTrim := &predict.HistoryWindow{Trim: 0.1}
	hwTrim.Train(trained)
	ewma := &predict.EWMADaily{}
	ewma.Train(trained)

	// Aligned, misaligned and tail windows on every day of the span and the
	// seven after it: past the span the trained predictors answer a window
	// from the memo its shape filled on an earlier day of the same type.
	var windows []sim.Window
	for day := 1; day < cfg.Days+7; day++ {
		base := sim.Time(day) * sim.Day
		windows = append(windows,
			sim.Window{Start: base + 9*time.Hour, End: base + 10*time.Hour},
			sim.Window{Start: base + 13*time.Hour, End: base + 16*time.Hour},
			sim.Window{Start: base + 90*time.Minute, End: base + 3*time.Hour},
			sim.Window{Start: base + 23*time.Hour + 30*time.Minute, End: base + sim.Day},
		)
	}
	machines := make([]trace.MachineID, 0, cfg.Machines+2)
	for id := 0; id < cfg.Machines; id++ {
		machines = append(machines, trace.MachineID(id))
	}
	machines = append(machines, trace.MachineID(cfg.Machines), -1) // absent IDs

	for _, m := range machines {
		for _, w := range windows {
			refCount, refSurv := NaiveHistoryWindow(tr, m, w, 0, 0)
			refTrimCount, refTrimSurv := NaiveHistoryWindow(tr, m, w, 0.1, 0)
			refEWMACount, refEWMASurv := NaiveEWMADaily(tr, m, w, 0)
			for _, c := range []struct {
				what                  string
				online, offline, want float64
			}{
				{"PredictCount", on.PredictCount(m, w), hw.PredictCount(m, w), refCount},
				{"PredictSurvival", on.PredictSurvival(m, w), hw.PredictSurvival(m, w), refSurv},
				{"trimmed PredictCount", onTrim.PredictCount(m, w), hwTrim.PredictCount(m, w), refTrimCount},
				{"trimmed PredictSurvival", onTrim.PredictSurvival(m, w), hwTrim.PredictSurvival(m, w), refTrimSurv},
				{"EWMACount", on.EWMACount(m, w), ewma.PredictCount(m, w), refEWMACount},
				{"EWMASurvival", on.EWMASurvival(m, w), ewma.PredictSurvival(m, w), refEWMASurv},
			} {
				if math.Abs(c.online-c.offline) > forecastTolerance ||
					math.Abs(c.online-c.want) > forecastTolerance ||
					math.Abs(c.offline-c.want) > forecastTolerance {
					return fmt.Errorf("forecast %s(m=%d, %v): online %v, offline %v, reference %v",
						c.what, m, w, c.online, c.offline, c.want)
				}
				res.ForecastChecks += 3 // store vs store, and each store vs the reference
			}
		}
	}
	return nil
}
