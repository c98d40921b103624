package main

import (
	"fmt"
	"time"

	"repro/internal/availability"
	"repro/internal/forecast"
	"repro/internal/ishare"
	"repro/internal/markov"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Layer probes: direct calls into one layer's exported functions, run once
// after the traced window. They split a number the window could only take
// whole (simulate into stream / monitor / detector, analyze into open /
// scan / accumulate) and give the layers no workload reaches alone a number
// of their own.

// timeReps runs fn reps times and returns the median seconds.
func timeReps(reps int, fn func() error) (float64, error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// probeControlPlaneLayers measures the shard ring and an in-process
// forecast.Service fed the transitions the shards' services were fed.
func (rc *runConfig) probeControlPlaneLayers(rep *report, cp *controlPlane) error {
	sz := rc.sizes
	ring, err := ishare.NewShardRing(cp.addrs, 0)
	if err != nil {
		return fmt.Errorf("shard ring: %w", err)
	}
	perShard := make([]int, sz.shards)
	t0 := time.Now()
	for loop := 0; loop < sz.ringLoops; loop++ {
		for _, n := range cp.fleet {
			s := ring.Owner(n.name)
			if loop == 0 {
				perShard[s]++
			}
		}
	}
	rep.set("ishare.shardring.owner_ns", float64(time.Since(t0))/float64(sz.ringLoops*len(cp.fleet)))
	most := 0
	for _, n := range perShard {
		most = max(most, n)
	}
	rep.set("ishare.shardring.imbalance", float64(most)*float64(sz.shards)/float64(len(cp.fleet)))

	svc, err := forecast.NewService(forecast.ServiceConfig{Scale: forecastScale})
	if err != nil {
		return fmt.Errorf("forecast service: %w", err)
	}
	rng := newSplitmix(rc.seed, 3)
	states := make([]string, len(cp.fleet))
	for i, n := range cp.fleet {
		states[i] = n.state
	}
	nowMS := time.Now().UnixMilli()
	t0 = time.Now()
	for round := 0; round < sz.serviceRounds; round++ {
		for i, n := range cp.fleet {
			if round > 0 && rng.float() < sz.churn {
				states[i] = drawState(rng)
			}
			if err := svc.ObserveState(n.name, states[i], nowMS); err != nil {
				return fmt.Errorf("forecast service: %w", err)
			}
		}
		nowMS += 100 // a sweep every 100 wall ms is 100 virtual minutes
	}
	rep.set("forecast.service.observe_ns", float64(time.Since(t0))/float64(sz.serviceRounds*len(cp.fleet)))
	unknown := 0
	t0 = time.Now()
	for _, n := range cp.fleet {
		if _, known := svc.Forecast(n.name, forecastHorizon, nowMS); !known {
			unknown++
		}
	}
	rep.set("forecast.service.query_us", micros(time.Since(t0))/float64(len(cp.fleet)))
	rep.check("forecast-service-knows-fleet", unknown == 0, "%d observed names unknown to the in-process service", unknown)
	return nil
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// probeGenerateLayers splits simulation into its layers on one machine —
// the observation stream (simos + workload + monitor), then the captured
// observations replayed through Monitor.Observe and Detector.Observe — and
// encodes one generated shard with the v1 row codec for the v1-vs-v2 entry.
func (rc *runConfig) probeGenerateLayers(rep *report, cfg testbed.Config, last generated) error {
	sz := rc.sizes
	cfg.Days = sz.obsDays
	var observations []availability.Observation
	streamS, err := timeReps(sz.probeReps, func() error {
		observations = observations[:0]
		return testbed.ObservationStream(cfg, 0, func(o availability.Observation) error {
			observations = append(observations, o)
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("observation stream: %w", err)
	}
	rep.check("observations-streamed", len(observations) > 0, "no observations in %d days", sz.obsDays)
	if len(observations) == 0 {
		return nil
	}
	rep.set("testbed.observation_stream_machine_days_s", float64(sz.obsDays)/streamS)

	mon, err := monitor.New(cfg.Monitor)
	if err != nil {
		return err
	}
	monS, _ := timeReps(sz.probeReps, func() error {
		mon.Reset()
		for _, o := range observations {
			mon.Observe(monitor.Sample{At: o.At, HostCPU: o.HostCPU, FreeMem: o.FreeMem, Alive: o.Alive})
		}
		return nil
	})
	rep.set("monitor.observe_ns", 1e9*monS/float64(len(observations)))

	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		return err
	}
	detS, _ := timeReps(sz.probeReps, func() error {
		det.Reset()
		for _, o := range observations {
			det.Observe(o)
		}
		return nil
	})
	rep.set("availability.observe_ns", 1e9*detS/float64(len(observations)))

	bf, err := trace.OpenBlockFile(last.paths[0])
	if err != nil {
		return err
	}
	tr, err := trace.CollectEvents(bf.Reader())
	bf.Close()
	if err != nil {
		return err
	}
	var v1 countingWriter
	v1S, err := timeReps(sz.probeReps, func() error {
		v1.n = 0
		return tr.WriteBinary(&v1)
	})
	if err != nil {
		return fmt.Errorf("v1 encode: %w", err)
	}
	rep.set("trace.v1_encode_mb_s", float64(v1.n)/1e6/v1S)
	return nil
}

// probeAnalyzeLayers takes the read side of the trace store apart (open,
// scan, serial and parallel analysis, a pruned scan), evaluates one
// predictor at a time, and times the estimators nothing else reaches alone.
func (rc *runConfig) probeAnalyzeLayers(rep *report, c corpus) error {
	sz := rc.sizes
	corpus := c.fleet
	machineDays := float64(sz.corpusMachines * sz.corpusDays)
	files := make([]*trace.BlockFile, len(corpus.paths))
	var openMS []float64
	for i, p := range corpus.paths {
		t0 := time.Now()
		bf, err := trace.OpenBlockFile(p)
		if err != nil {
			return err
		}
		openMS = append(openMS, 1e3*time.Since(t0).Seconds())
		defer bf.Close()
		files[i] = bf
	}
	rep.set("trace.open_ms", median(openMS))

	var scanned int64
	scanS, err := timeReps(sz.probeReps, func() error {
		scanned = 0
		for _, bf := range files {
			if _, _, err := bf.Scan(trace.ScanFilter{}, func(trace.Event) error { scanned++; return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	rep.check("scan-sees-every-event", scanned == corpus.events, "an unfiltered scan visited %d events, sink saw %d", scanned, corpus.events)
	rep.set("trace.scan_events_s", float64(scanned)/scanS)
	rep.set("trace.scan_mb_s", float64(corpus.bytes)/1e6/scanS)

	serialS, err := timeReps(sz.probeReps, func() error {
		_, err := trace.AnalyzeBlockFiles(files, 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("serial analysis: %w", err)
	}
	parallelS, err := timeReps(sz.probeReps, func() error {
		_, err := trace.AnalyzeBlockFiles(files, rc.nproc)
		return err
	})
	if err != nil {
		return fmt.Errorf("parallel analysis: %w", err)
	}
	rep.set("trace.analyze_serial_machine_days_s", machineDays/serialS)
	rep.set("trace.analyze_self_share", max(0, 1-scanS/serialS))
	rep.set("trace.parallel_speedup", serialS/parallelS)

	// The fixed pruned scan: one machine, the middle third of the span.
	decoded, skipped := 0, 0
	for _, bf := range files {
		lo, hi := bf.Coverage()
		span := bf.Header().Span
		third := (span.End - span.Start) / 3
		d, s, err := bf.Scan(trace.ScanFilter{
			Machine: lo + (hi-lo)/3, HasMachine: true,
			Window: sim.Window{Start: span.Start + third, End: span.End - third}, HasWindow: true, Overlap: true,
		}, func(trace.Event) error { return nil })
		if err != nil {
			return fmt.Errorf("pruned scan: %w", err)
		}
		decoded, skipped = decoded+d, skipped+s
	}
	if decoded+skipped > 0 {
		rep.set("trace.pruned_block_share", float64(skipped)/float64(decoded+skipped))
	}

	evalFile, err := trace.OpenBlockFile(c.eval.paths[0])
	if err != nil {
		return err
	}
	defer evalFile.Close()
	for i, p := range predict.DefaultPredictors() {
		windows, brier := 0, 0.0
		s, err := timeReps(sz.probeReps, func() error {
			one := predict.DefaultPredictors()[i : i+1]
			ev, err := predict.EvaluateBlocks(evalFile, one, predict.DefaultEvalConfig())
			if err != nil {
				return err
			}
			windows, brier = ev.Scores[0].Windows, ev.Scores[0].Brier
			return nil
		})
		if err != nil {
			return fmt.Errorf("predict %s: %w", p.Name(), err)
		}
		name := "predict." + sanitise(p.Name())
		rep.set(name+".windows_s", float64(windows)/s)
		rep.set(name+".brier", brier)
	}

	// The estimators get the one-file trace: a shard's header names the whole
	// fleet, so a trace collected from one would count machines it has no
	// events for.
	tr, err := trace.CollectEvents(evalFile.Reader())
	if err != nil {
		return err
	}
	evalDays := float64(tr.Machines * sz.evalDays)
	var model *markov.Model
	fitS, err := timeReps(sz.probeReps, func() error {
		model, err = markov.Fit(tr, markov.FitOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("markov fit: %w", err)
	}
	genS, err := timeReps(sz.probeReps, func() error {
		_, err := markov.Generate(model, markov.GenConfig{Machines: tr.Machines, Days: sz.evalDays, Seed: rc.seed})
		return err
	})
	if err != nil {
		return fmt.Errorf("markov generate: %w", err)
	}
	rep.set("markov.fit_machine_days_s", evalDays/fitS)
	rep.set("markov.generate_machine_days_s", evalDays/genS)

	eventsS, queryUS, err := onlineReplay(tr)
	if err != nil {
		return fmt.Errorf("online replay: %w", err)
	}
	rep.set("forecast.online.ingest_events_s", eventsS)
	rep.set("forecast.online.query_us", queryUS)
	return nil
}
