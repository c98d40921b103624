package testbed

import (
	"fmt"
	"math/rand"

	"repro/internal/availability"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Occupancy reports how one machine's observed time divides among the
// five availability states — the state-occupancy view of the multi-state
// model (an extension; the paper reports only the event statistics).
type Occupancy struct {
	Machine  trace.MachineID
	Fraction map[availability.State]float64
}

// Run simulates the whole testbed and returns the collected unavailability
// trace. Machines are simulated concurrently, bounded by Config.Parallelism.
func Run(cfg Config) (*trace.Trace, error) {
	tr, _, err := RunWithOccupancy(cfg)
	return tr, err
}

// spanOf returns the observed window of a testbed run.
func spanOf(cfg Config) sim.Window {
	return sim.Window{Start: 0, End: sim.Time(cfg.Days) * sim.Day}
}

// RunWithOccupancy is Run, additionally returning each machine's
// state-occupancy fractions. It is the sharded runner with the whole fleet
// as one shard, collected in memory — so the trace is, by construction, the
// (machine, start, end)-ordered stream RunSharded delivers at any shard
// size or parallelism.
func RunWithOccupancy(cfg Config) (*trace.Trace, []Occupancy, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	sink := NewCollectSink(cfg)
	occ := make([]Occupancy, cfg.Machines)
	if err := runShards(cfg, cfg.Machines, sink, occ); err != nil {
		return nil, nil, err
	}
	if err := sink.Trace.Validate(); err != nil {
		return nil, nil, fmt.Errorf("testbed: generated invalid trace: %w", err)
	}
	return sink.Trace, occ, nil
}

// machineOccupancy converts a time-in-state accumulator to fractions.
func machineOccupancy(id trace.MachineID, timing *availability.TimeInState) Occupancy {
	o := Occupancy{Machine: id, Fraction: make(map[availability.State]float64)}
	for _, st := range []availability.State{availability.S1, availability.S2, availability.S3, availability.S4, availability.S5} {
		o.Fraction[st] = timing.Fraction(st)
	}
	return o
}

// runMachine simulates one machine over the traced span, returning its
// unavailability events and its time-in-state accounting.
func runMachine(cfg Config, id trace.MachineID) ([]trace.Event, *availability.TimeInState, error) {
	src := sim.NewSource(cfg.Seed)
	planRNG := src.Stream(fmt.Sprintf("machine/%d/plan", id))
	ambientRNG := src.Stream(fmt.Sprintf("machine/%d/ambient", id))
	contribs, outages := planMachine(cfg, planRNG)
	var met *simMetrics
	if cfg.Metrics != nil {
		// Get-or-create: every machine shares the run-wide families.
		met = newSimMetrics(cfg.Metrics)
	}
	return simulateMachine(cfg, id, contribs, outages, ambientRNG, met)
}

// simulateMachine drives the monitor/detector/trace pipeline over the
// machine's planned load. Instead of stepping every monitor period
// (~530k samples per machine at the defaults), it walks the merged
// contribution/outage boundary timeline: between boundaries the sample
// inputs are piecewise-constant except for the ambient wander, so whole
// spans advance in closed form.
//
// Per span, three regimes:
//
//   - machine dead (in an outage): one full-pipeline sample pins the
//     detector at S5; nothing can change until the outage ends, and
//     TimeInState telescopes across the skipped samples.
//   - calm (no active contribution, free memory covers the guest demand,
//     and Th2 at or above the 0.5 ambient clamp): after SmoothWindow
//     full-pipeline samples settle the smoothing ring and clear any spike
//     bookkeeping, only S1<->S2 toggles remain possible. A tight loop
//     advances the AR(1) noise, the smoothing window and the Th1
//     comparison directly, bypassing sample structs, the classifier and
//     the builder; the detector is resynced once at span end.
//   - contended (active spikes/hogs, or configurations the calm argument
//     does not cover): every sample runs the full pipeline, exactly like
//     the naive loop.
//
// Random-draw parity with the per-period loop (forEachObservation) is
// strict: one NormFloat64 per alive sample, none when dead. The oracle
// tests and the internal/check differential compare the two paths
// event-for-event.
func simulateMachine(cfg Config, id trace.MachineID, contribs []contribution, outages []outage, ambientRNG *rand.Rand, met *simMetrics) ([]trace.Event, *availability.TimeInState, error) {
	amb := newAmbient(cfg, ambientRNG)
	mon, err := monitor.New(cfg.Monitor)
	if err != nil {
		return nil, nil, err
	}
	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		return nil, nil, err
	}
	builder := trace.NewBuilder(id)
	timing := availability.NewTimeInState(availability.S1)
	rec := newStateRecorder(met, availability.S1)

	var events []trace.Event
	end := sim.Time(cfg.Days) * sim.Day
	period := mon.Config().Period
	smoothW := int64(mon.Config().SmoothWindow)
	th := det.Config().Thresholds
	guestDemand := mon.Config().GuestDemand
	demand := guestDemand
	if demand == 0 {
		demand = det.Config().GuestWorkingSet
	}

	var act []contribution
	nextContrib := 0
	nextOutage := 0
	var inOutage *outage
	curState := availability.S1

	for t := sim.Time(0); t < end; {
		// Apply the boundary automaton at the span's first sample — the
		// same code the naive loop runs at every sample (where it is a
		// no-op strictly inside a span, since spans end at the next
		// boundary).
		for nextContrib < len(contribs) && contribs[nextContrib].start <= t {
			act = append(act, contribs[nextContrib])
			nextContrib++
		}
		keep := act[:0]
		for _, c := range act {
			if c.end > t {
				keep = append(keep, c)
			}
		}
		act = keep
		if inOutage != nil && t >= inOutage.end {
			inOutage = nil
		}
		for nextOutage < len(outages) && outages[nextOutage].start <= t {
			o := outages[nextOutage]
			nextOutage++
			if o.end > t {
				inOutage = &o
			}
		}

		// The earliest future instant any sample input can change. All
		// candidates are strictly after t (starts <= t were consumed,
		// ends <= t were compacted), so the span holds at least one sample.
		next := end
		if nextContrib < len(contribs) && contribs[nextContrib].start < next {
			next = contribs[nextContrib].start
		}
		for _, c := range act {
			if c.end < next {
				next = c.end
			}
		}
		if inOutage != nil && inOutage.end < next {
			next = inOutage.end
		}
		if nextOutage < len(outages) && outages[nextOutage].start < next {
			next = outages[nextOutage].start
		}
		k := int64((next - t + period - 1) / period) // samples in [t, next)

		if inOutage != nil {
			obs := mon.Observe(monitor.Sample{At: t, Alive: false})
			state, transition := det.Observe(obs)
			timing.Advance(t, state)
			if transition != nil {
				if ev := builder.OnTransition(*transition); ev != nil {
					events = append(events, *ev)
				}
			}
			curState = state
			rec.note(t, state)
			if k > 1 {
				det.FastForward(state)
			}
			t += sim.Time(k) * period
			continue
		}

		var spanMem int64
		for _, c := range act {
			spanMem += c.mem
		}
		free := cfg.RAM - cfg.KernelMem - (amb.baseMem + spanMem)
		if free < 0 {
			free = 0
		}
		calm := len(act) == 0 && free >= demand && th.Th2 >= ambientLoadCap
		settle := k
		if calm && smoothW < k {
			settle = smoothW
		}

		i := int64(0)
		var raw0, raw1 float64 // last two raw CPU values pushed (raw1 newest)
		for ; i < settle; i++ {
			st := t + sim.Time(i)*period
			cpu, hostMem := amb.step(st)
			for _, c := range act {
				cpu += c.cpu
				hostMem += c.mem
			}
			if cpu > 1 {
				cpu = 1
			}
			fm := cfg.RAM - cfg.KernelMem - hostMem
			if fm < 0 {
				fm = 0
			}
			raw0, raw1 = raw1, cpu
			obs := mon.Observe(monitor.Sample{At: st, Alive: true, HostCPU: cpu, FreeMem: fm})
			state, transition := det.Observe(obs)
			timing.Advance(st, state)
			if transition != nil {
				if ev := builder.OnTransition(*transition); ev != nil {
					events = append(events, *ev)
				}
			}
			curState = state
			rec.note(st, state)
		}
		if i < k {
			// Calm remainder: smoothed load is at most the ambient clamp,
			// which is at most Th2, and free memory covers the demand, so
			// the classifier can only return S1 or S2 — states the builder
			// ignores. TimeInState needs a call only at changes. The
			// ambient recurrence runs on locals (written back after the
			// loop) so the per-sample cost is the NormFloat64 draw plus a
			// handful of arithmetic ops.
			rng := amb.r
			noise := amb.noise
			level := amb.level
			nextRecalc := amb.nextRecalc
			var sm float64
			st := t + sim.Time(i)*period
			if smoothW == 2 {
				// The two-sample window lives in registers: the window
				// after a push is {previous value, new value}, and a
				// two-term sum is exactly commutative, so (prev+load)*0.5
				// matches the monitor's ring sum bit-for-bit. The monitor
				// is re-primed with the window once at span end.
				prev, prev2 := raw1, raw0
				for ; i < k; i, st = i+1, st+period {
					if st >= nextRecalc {
						amb.refresh(st)
						level = amb.level
						nextRecalc = amb.nextRecalc
					}
					noise = 0.97*noise + 0.03*rng.NormFloat64()*0.08
					load := level + noise
					if load < 0 {
						load = 0
					} else if load > ambientLoadCap {
						load = ambientLoadCap
					}
					sm = (prev + load) * 0.5
					prev2, prev = prev, load
					ns := availability.S1
					if sm >= th.Th1 {
						ns = availability.S2
					}
					if ns != curState {
						timing.Advance(st, ns)
						curState = ns
						rec.note(st, ns)
					}
				}
				mon.Prime(prev2, prev)
			} else {
				for ; i < k; i, st = i+1, st+period {
					if st >= nextRecalc {
						amb.refresh(st)
						level = amb.level
						nextRecalc = amb.nextRecalc
					}
					noise = 0.97*noise + 0.03*rng.NormFloat64()*0.08
					load := level + noise
					if load < 0 {
						load = 0
					} else if load > ambientLoadCap {
						load = ambientLoadCap
					}
					sm = mon.Smooth(load)
					ns := availability.S1
					if sm >= th.Th1 {
						ns = availability.S2
					}
					if ns != curState {
						timing.Advance(st, ns)
						curState = ns
						rec.note(st, ns)
					}
				}
			}
			amb.noise = noise
			det.FastForward(curState)
		}
		t += sim.Time(k) * period
	}

	// The naive loop's last Advance lands on the final sample; the skipping
	// paths above may have stopped crediting at the last state change, so
	// bring the accumulator up to the final sample instant.
	if end > 0 {
		last := sim.Time((end - 1) / period * period)
		timing.Advance(last, curState)
	}
	rec.finish(end)
	if ev := builder.Flush(end); ev != nil {
		events = append(events, *ev)
	}
	return events, timing, nil
}

// forEachObservation is the seed implementation's per-period loop, kept
// verbatim: every monitor period it re-applies the boundary automaton,
// composes the sample, and hands the smoothed monitor observation to fn.
// It is the one source of the naive observation stream: the exported
// ObservationStream serves it, and the reference runner in internal/check
// is built on that.
func forEachObservation(cfg Config, contribs []contribution, outages []outage, ambientRNG *rand.Rand, fn func(availability.Observation) error) error {
	amb := newAmbient(cfg, ambientRNG)
	mon, err := monitor.New(cfg.Monitor)
	if err != nil {
		return err
	}
	end := sim.Time(cfg.Days) * sim.Day
	period := mon.Config().Period

	var act []contribution
	nextContrib := 0
	nextOutage := 0
	var inOutage *outage

	for t := sim.Time(0); t < end; t += period {
		// Activate contributions that started.
		for nextContrib < len(contribs) && contribs[nextContrib].start <= t {
			act = append(act, contribs[nextContrib])
			nextContrib++
		}
		// Expire finished ones (small list; compact in place).
		keep := act[:0]
		for _, c := range act {
			if c.end > t {
				keep = append(keep, c)
			}
		}
		act = keep

		// Track outages.
		if inOutage != nil && t >= inOutage.end {
			inOutage = nil
		}
		for nextOutage < len(outages) && outages[nextOutage].start <= t {
			o := outages[nextOutage]
			nextOutage++
			if o.end > t {
				inOutage = &o
			}
		}

		sample := monitor.Sample{At: t, Alive: inOutage == nil}
		if sample.Alive {
			cpu, hostMem := amb.step(t)
			for _, c := range act {
				cpu += c.cpu
				hostMem += c.mem
			}
			if cpu > 1 {
				cpu = 1
			}
			free := cfg.RAM - cfg.KernelMem - hostMem
			if free < 0 {
				free = 0
			}
			sample.HostCPU = cpu
			sample.FreeMem = free
		}

		if err := fn(mon.Observe(sample)); err != nil {
			return err
		}
	}
	return nil
}

// ObservationStream replays the smoothed monitor observations machine id
// would feed the detector in a run of cfg, in sample order. The stream is
// reproducible — the same (cfg, id) pair always yields the same
// observations — which lets external checkers drive their own detector (or
// a reference model) over exactly the input the testbed pipeline saw.
// A non-nil error from fn stops the stream and is returned verbatim.
func ObservationStream(cfg Config, id trace.MachineID, fn func(availability.Observation) error) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	src := sim.NewSource(cfg.Seed)
	planRNG := src.Stream(fmt.Sprintf("machine/%d/plan", id))
	ambientRNG := src.Stream(fmt.Sprintf("machine/%d/ambient", id))
	contribs, outages := planMachine(cfg, planRNG)
	return forEachObservation(cfg, contribs, outages, ambientRNG, fn)
}
