package testbed

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// perPeriod runs the plain detector/timing/builder pipeline over the
// per-period loop for a hand-built plan. internal/check's RunNaive does the
// same over the exported ObservationStream for whole configurations; plans
// are private to this package, so the plan-level oracle is spelled out here.
func perPeriod(cfg Config, contribs []contribution, outages []outage, ambientRNG *rand.Rand) ([]trace.Event, *availability.TimeInState, error) {
	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		return nil, nil, err
	}
	builder := trace.NewBuilder(0)
	timing := availability.NewTimeInState(availability.S1)
	var events []trace.Event
	err = forEachObservation(cfg, contribs, outages, ambientRNG, func(obs availability.Observation) error {
		state, transition := det.Observe(obs)
		timing.Advance(obs.At, state)
		if transition != nil {
			if ev := builder.OnTransition(*transition); ev != nil {
				events = append(events, *ev)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if ev := builder.Flush(sim.Time(cfg.Days) * sim.Day); ev != nil {
		events = append(events, *ev)
	}
	return events, timing, nil
}

// runBothPaths drives the span-skipping runner and the naive per-period
// oracle over the same synthetic plan, with identically seeded ambient
// streams, and compares events and per-state time.
func runBothPaths(t *testing.T, tag string, cfg Config, contribs []contribution, outages []outage) {
	t.Helper()
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	src := sim.NewSource(cfg.Seed)
	fastEv, fastTiming, err := simulateMachine(cfg, 0, contribs, outages, src.Stream("oracle/ambient"), nil)
	if err != nil {
		t.Fatal(err)
	}
	src = sim.NewSource(cfg.Seed)
	naiveEv, naiveTiming, err := perPeriod(cfg, contribs, outages, src.Stream("oracle/ambient"))
	if err != nil {
		t.Fatal(err)
	}
	comparePaths(t, tag, fastEv, naiveEv, fastTiming, naiveTiming)
}

func comparePaths(t *testing.T, tag string, fastEv, naiveEv []trace.Event, fastTiming, naiveTiming *availability.TimeInState) {
	t.Helper()
	if len(fastEv) != len(naiveEv) {
		t.Fatalf("%s: event count fast=%d naive=%d\nfast: %+v\nnaive: %+v", tag, len(fastEv), len(naiveEv), fastEv, naiveEv)
	}
	for i := range fastEv {
		if fastEv[i] != naiveEv[i] {
			t.Errorf("%s: event %d differs\nfast:  %+v\nnaive: %+v", tag, i, fastEv[i], naiveEv[i])
		}
	}
	for _, st := range []availability.State{availability.S1, availability.S2, availability.S3, availability.S4, availability.S5} {
		if f, n := fastTiming.Total(st), naiveTiming.Total(st); f != n {
			t.Errorf("%s: time in %v fast=%v naive=%v", tag, st, f, n)
		}
	}
}

// oneDay returns a defaulted single-machine, single-day configuration.
func oneDay() Config {
	cfg := DefaultConfig()
	cfg.Machines = 1
	cfg.Days = 1
	return cfg
}

func secs(sec float64) sim.Time { return sim.Time(sec * float64(time.Second)) }

// TestOracleTransientSpikeAcrossBoundary places a sub-minute spike whose
// lifetime straddles a span boundary (another contribution ends mid-spike),
// so the transient-suspension bookkeeping crosses a skip edge; a later 90s
// spike outlives the transient window and must open a backdated S3 event.
func TestOracleTransientSpikeAcrossBoundary(t *testing.T) {
	contribs := []contribution{
		{start: 0, end: secs(120), cpu: 0.10},
		{start: secs(100), end: secs(140), cpu: 0.90},
		{start: secs(400), end: secs(430), cpu: 0.85},
		{start: secs(1000), end: secs(1090), cpu: 0.92},
	}
	runBothPaths(t, "transient", oneDay(), contribs, nil)
}

// TestOracleSmoothingAcrossBoundary ends a high spike right before a calm
// span, so the smoothing window still holds spike samples when the skip
// path takes over; the settle samples must flush them through the full
// pipeline. A memory hog exercises the S4 regime the calm path must avoid.
func TestOracleSmoothingAcrossBoundary(t *testing.T) {
	contribs := []contribution{
		{start: secs(200), end: secs(230), cpu: 0.95},
		{start: secs(600), end: secs(1200), mem: 1400 * mb, cpu: 0.15},
	}
	runBothPaths(t, "smoothing", oneDay(), contribs, nil)
}

// TestOracleOutageOnSampleInstant starts outages exactly on a sample
// instant, just off one, overlapping each other, and nested such that the
// later-consumed outage ends before an earlier one finishes (the pointer
// automaton deliberately tracks only the most recently started outage).
func TestOracleOutageOnSampleInstant(t *testing.T) {
	outages := []outage{
		{start: secs(300), end: secs(347)},   // starts exactly on the 15s grid
		{start: secs(400.5), end: secs(441)}, // starts off-grid
		{start: secs(500), end: secs(600)},   // long outage...
		{start: secs(510), end: secs(540)},   // ...overlapped by a shorter one
		{start: secs(900), end: secs(915)},   // exactly one period long
	}
	runBothPaths(t, "outage", oneDay(), nil, outages)
}

// TestOracleFullPlans compares the two paths over complete generated plans
// for several seeds and for configurations that disable the calm fast path
// (wider smoothing window; Th2 below the ambient clamp).
func TestOracleFullPlans(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := oneDay()
		cfg.Seed = seed
		cfg.Days = 3
		src := sim.NewSource(cfg.Seed)
		contribs, outages := planMachine(cfg.withDefaults(), src.Stream("oracle/plan"))
		runBothPaths(t, fmt.Sprintf("plan seed %d", seed), cfg, contribs, outages)
	}

	wide := oneDay()
	wide.Monitor.SmoothWindow = 3
	src := sim.NewSource(wide.Seed)
	contribs, outages := planMachine(wide.withDefaults(), src.Stream("oracle/plan"))
	runBothPaths(t, "smooth window 3", wide, contribs, outages)

	lowTh2 := oneDay()
	lowTh2.Detector.Thresholds = availability.SolarisThresholds()
	runBothPaths(t, "Th2 below ambient clamp", lowTh2, contribs, outages)
}
