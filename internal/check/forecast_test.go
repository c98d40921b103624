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
// observation streams replayed through a detector and trace.Builder per
// machine, as the testbed recorder runs them, into forecast.Online's event
// ingest (the host runs the detector; the forecaster learns only what it
// found), predictors batch-trained on the recorded trace of the same
// streams (index + memos), and the naive oracle (linear scans, its own day
// walk). All three must agree — plain and trimmed history windows plus the
// EWMA daily model, over aligned and misaligned windows, for every machine
// in the fleet and for absent machine IDs.
func checkOnlineForecastSeed(cfg testbed.Config, tr *trace.Trace, res *Result) error {
	on, err := forecast.New(forecast.Config{
		Calendar: tr.Calendar,
		Machines: cfg.Machines,
		Start:    tr.Span.Start,
	})
	if err != nil {
		return fmt.Errorf("online forecaster: %w", err)
	}
	onTrim, err := forecast.New(forecast.Config{
		Calendar: tr.Calendar,
		Machines: cfg.Machines,
		Trim:     0.1,
		Start:    tr.Span.Start,
	})
	if err != nil {
		return fmt.Errorf("online trimmed forecaster: %w", err)
	}
	for id := 0; id < cfg.Machines; id++ {
		m := trace.MachineID(id)
		det, err := availability.NewDetector(cfg.Detector)
		if err != nil {
			return err
		}
		b := trace.NewBuilder(m)
		err = testbed.ObservationStream(cfg, m, func(obs availability.Observation) error {
			if _, tr := det.Observe(obs); tr != nil {
				if e := b.OnTransition(*tr); e != nil {
					on.ObserveEnd(m, e.End)
					onTrim.ObserveEnd(m, e.End)
				}
				if tr.To.Unavailable() {
					on.ObserveStart(m, tr.At)
					onTrim.ObserveStart(m, tr.At)
				}
			}
			on.AdvanceTo(obs.At)
			onTrim.AdvanceTo(obs.At)
			return nil
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
	// The forecasters' count estimates: the history-window maths over each
	// ring, untrained, with the forecaster's own trim.
	ringHW, ringHWTrim := &predict.HistoryWindow{}, &predict.HistoryWindow{Trim: 0.1}

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
			refCount, refSurv := NaiveHistoryWindow(tr, m, w, 0)
			refTrimCount, refTrimSurv := NaiveHistoryWindow(tr, m, w, 0.1)
			refEWMACount, refEWMASurv := NaiveEWMADaily(tr, m, w)
			onEWMACount, onEWMASurv := (&predict.EWMADaily{}).Estimate(on, m, w)
			onCount, _, _ := ringHW.Estimate(on, m, w)
			onTrimCount, _, _ := ringHWTrim.Estimate(onTrim, m, w)
			for _, c := range []struct {
				what                  string
				online, offline, want float64
			}{
				{"PredictCount", onCount, hw.PredictCount(m, w), refCount},
				{"PredictSurvival", on.PredictSurvival(m, w), hw.PredictSurvival(m, w), refSurv},
				{"trimmed PredictCount", onTrimCount, hwTrim.PredictCount(m, w), refTrimCount},
				{"trimmed PredictSurvival", onTrim.PredictSurvival(m, w), hwTrim.PredictSurvival(m, w), refTrimSurv},
				{"EWMACount", onEWMACount, ewma.PredictCount(m, w), refEWMACount},
				{"EWMASurvival", onEWMASurv, ewma.PredictSurvival(m, w), refEWMASurv},
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
