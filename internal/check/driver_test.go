package check

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// The CI configuration of the differential: seeds from 1 (the testbed
// treats a zero seed as unset and substitutes its default), each a
// randomized observation sequence, with the (much slower) testbed leg on
// every testbedEvery-th seed and the generative leg halfway between.
const (
	diffSeeds        = 200
	diffObservations = 1500
	testbedEvery     = 4
)

// Result summarizes how much ground a clean differential run covered.
type Result struct {
	Seeds         int
	Observations  int64
	Transitions   int64
	TestbedRuns   int
	TestbedEvents int64
	// ForecastChecks counts forecast comparisons (online ring vs trained
	// trace vs naive reference, pairwise) that agreed within tolerance
	// across all testbed differentials.
	ForecastChecks int64
	// MarkovRuns counts generative-model differentials (checkMarkovSeed)
	// and MarkovEvents the scenario events they analyzed.
	MarkovRuns   int
	MarkovEvents int64
	// MarkovChecks counts SemiMarkov boundary predictions compared against
	// the linear-scan reference.
	MarkovChecks int64
}

// TestDifferential is the differential harness (make check): per seed it
// generates a randomized observation sequence and verifies that the
// Reference model, the production Detector, and a Controller-wrapped
// detector agree on every state, transition and suspension flag, that every
// emitted transition is a Figure 5 edge, that time-in-state accounting
// telescopes, that the controller's guest sees a legal action sequence, and
// that the trace built from the transitions survives both codecs and agrees
// between indexed and linear queries. Every testbedEvery-th seed
// additionally runs a small testbed four ways — fast, sharded, naive, and a
// Reference replay over the exported observation stream — and requires
// identical traces and occupancy, plus an online-vs-offline forecasting
// differential (see checkOnlineForecastSeed). On the seeds halfway between
// testbed runs a generative-model differential (see checkMarkovSeed)
// generates a markov scenario fleet and requires the serial, sharded, and
// parallel-block analyzers to agree on it exactly, and the SemiMarkov
// predictor to match a linear-scan reference at boundary instants.
//
// The first divergence fails the test naming the seed. A clean run must
// cover exactly the ground it always has: a count that drifts means a leg
// stopped checking what it did, and fails printing both sides.
func TestDifferential(t *testing.T) {
	want := Result{
		Seeds: 200, Observations: 300000, Transitions: 97866,
		TestbedRuns: 50, TestbedEvents: 620, ForecastChecks: 94320,
		MarkovRuns: 50, MarkovEvents: 3058, MarkovChecks: 3264,
	}
	start := time.Now()
	var res Result
	for i := 0; i < diffSeeds; i++ {
		seed := int64(1 + i)
		if err := checkDetectorSeed(seed, diffObservations, &res); err != nil {
			t.Fatalf("DIVERGENCE: seed %d: %v", seed, err)
		}
		if i%testbedEvery == 0 {
			if err := checkTestbedSeed(seed, &res); err != nil {
				t.Fatalf("DIVERGENCE: testbed seed %d: %v", seed, err)
			}
		}
		// Offset by half a period so the markov and testbed legs
		// interleave instead of piling onto the same seeds.
		if i%testbedEvery == testbedEvery/2 {
			if err := checkMarkovSeed(seed, &res); err != nil {
				t.Fatalf("DIVERGENCE: markov seed %d: %v", seed, err)
			}
		}
		res.Seeds++
	}
	if res != want {
		t.Fatalf("the differential covered different ground:\n got %+v\nwant %+v", res, want)
	}
	t.Logf("check passed: %d seeds, %d observations, %d transitions, %d testbed differentials (%d events, %d forecast comparisons), %d generative differentials (%d events, %d boundary predictions), zero divergence in %s",
		res.Seeds, res.Observations, res.Transitions, res.TestbedRuns, res.TestbedEvents, res.ForecastChecks,
		res.MarkovRuns, res.MarkovEvents, res.MarkovChecks, time.Since(start).Round(time.Millisecond))
}

var allStates = []availability.State{
	availability.S1, availability.S2, availability.S3, availability.S4, availability.S5,
}

// randomDetectorConfig varies the knobs the classifier actually branches
// on: threshold set, transient window, and working-set size.
func randomDetectorConfig(rng *rand.Rand) availability.Config {
	switch rng.Intn(4) {
	case 0:
		return availability.Config{} // paper defaults (Linux thresholds)
	case 1:
		return availability.Config{Thresholds: availability.SolarisThresholds()}
	case 2:
		return availability.Config{TransientWindow: time.Duration(30+rng.Intn(91)) * time.Second}
	default:
		return availability.Config{GuestWorkingSet: int64(64+rng.Intn(256)) << 20}
	}
}

// Observation regimes. Sequences dwell in a regime and hop randomly, so
// runs of spikes, outages and memory pressure of varying length all occur.
const (
	regimeCalm = iota
	regimeMid
	regimeSpike
	regimeMemHog
	regimeDead
)

// stepChoices are the inter-observation gaps, weighted toward the
// monitor's 15s period but including 0 (repeated timestamps), the
// transient-window boundary neighborhood (59s/60s/61s at the default
// 1-minute window) and long jumps.
var stepChoices = []time.Duration{
	0, time.Second, 5 * time.Second,
	15 * time.Second, 15 * time.Second, 15 * time.Second,
	30 * time.Second, 45 * time.Second,
	59 * time.Second, time.Minute, 61 * time.Second,
	90 * time.Second, 2 * time.Minute,
}

type obsGen struct {
	rng    *rand.Rand
	cfg    availability.Config
	regime int
	at     sim.Time
}

func (g *obsGen) next() availability.Observation {
	g.at += stepChoices[g.rng.Intn(len(stepChoices))]
	if g.rng.Float64() < 0.35 {
		// Spikes get double weight: they are the regime with history.
		g.regime = []int{regimeCalm, regimeMid, regimeSpike, regimeSpike, regimeMemHog, regimeDead}[g.rng.Intn(6)]
	}
	th := g.cfg.Thresholds
	demand := g.cfg.GuestWorkingSet
	obs := availability.Observation{At: g.at, Alive: g.regime != regimeDead}
	// Sometimes carry an explicit per-observation demand, exercising the
	// fallback-vs-explicit branch of the S4 test.
	if g.rng.Float64() < 0.2 {
		obs.GuestDemand = demand/2 + 1
		demand = obs.GuestDemand
	}
	// Free memory: comfortable by default; exactly the demand (still
	// sufficient) and one byte short (thrashing) probe the S4 boundary.
	switch {
	case g.regime == regimeMemHog:
		if g.rng.Float64() < 0.5 {
			obs.FreeMem = demand - 1
		} else {
			obs.FreeMem = g.rng.Int63n(demand)
		}
	case g.rng.Float64() < 0.1:
		obs.FreeMem = demand
	default:
		obs.FreeMem = demand * 4
	}
	if !obs.Alive {
		return obs
	}
	// Host load: per-regime bands, with frequent exact-threshold and
	// one-ulp-off values — Th2 exactly is NOT a spike (strictly greater).
	const eps = 1e-9
	if g.rng.Float64() < 0.25 {
		obs.HostCPU = []float64{th.Th1, th.Th1 - eps, th.Th1 + eps, th.Th2, th.Th2 - eps, th.Th2 + eps}[g.rng.Intn(6)]
	} else {
		switch g.regime {
		case regimeSpike:
			obs.HostCPU = th.Th2 + eps + (1-th.Th2)*g.rng.Float64()
		case regimeMid:
			obs.HostCPU = th.Th1 + (th.Th2-th.Th1)*g.rng.Float64()
		default:
			obs.HostCPU = th.Th1 * g.rng.Float64()
		}
	}
	if obs.HostCPU > 1 {
		obs.HostCPU = 1
	}
	if obs.HostCPU < 0 {
		obs.HostCPU = 0
	}
	return obs
}

// auditGuest records every control action and flags sequences no correct
// controller may produce: operating on a killed guest, double
// suspend/resume, or renicing to a level the policy never uses.
type auditGuest struct {
	alive      bool
	suspended  bool
	nice       int
	violations []string
}

func newAuditGuest() *auditGuest { return &auditGuest{alive: true} }

func (g *auditGuest) fail(format string, args ...interface{}) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

func (g *auditGuest) Renice(nice int) {
	if !g.alive {
		g.fail("renice(%d) after kill", nice)
	}
	if nice != 0 && nice != availability.LowestNice {
		g.fail("renice to %d, want 0 or %d", nice, availability.LowestNice)
	}
	g.nice = nice
}

func (g *auditGuest) Suspend() {
	if !g.alive {
		g.fail("suspend after kill")
	}
	if g.suspended {
		g.fail("suspend while already suspended")
	}
	g.suspended = true
}

func (g *auditGuest) Resume() {
	if !g.alive {
		g.fail("resume after kill")
	}
	if !g.suspended {
		g.fail("resume while running")
	}
	g.suspended = false
}

func (g *auditGuest) Kill() {
	if !g.alive {
		g.fail("kill after kill")
	}
	g.alive = false
	g.suspended = false
}

func transitionsEqual(a, b *availability.Transition) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func trString(tr *availability.Transition) string {
	if tr == nil {
		return "<none>"
	}
	return fmt.Sprintf("%v -> %v at %v (LH %v, free %d)", tr.From, tr.To, tr.At, tr.LH, tr.FreeMem)
}

// checkDetectorSeed runs one randomized observation sequence through the
// reference model, a bare detector and a controller-wrapped detector, and
// then puts the resulting trace through the codec and index differentials.
func checkDetectorSeed(seed int64, nObs int, res *Result) error {
	rng := sim.NewSource(seed).Stream("check/detector")
	cfg := randomDetectorConfig(rng)
	ref, err := NewReference(cfg)
	if err != nil {
		return err
	}
	det, err := availability.NewDetector(cfg)
	if err != nil {
		return err
	}
	ctrlDet, err := availability.NewDetector(cfg)
	if err != nil {
		return err
	}
	guest := newAuditGuest()
	ctrl := availability.NewController(ctrlDet, guest)

	edges := FigureFiveEdges()
	gen := &obsGen{rng: rng, cfg: ref.Config(), regime: regimeCalm}
	timingRef := availability.NewTimeInState(availability.S1)
	timingDet := availability.NewTimeInState(availability.S1)
	builder := trace.NewBuilder(0)
	var events []trace.Event
	prev := availability.S1
	var first, last sim.Time

	for i := 0; i < nObs; i++ {
		obs := gen.next()
		if i == 0 {
			first = obs.At
		}
		last = obs.At

		refState, refTr := ref.Observe(obs)
		detState, detTr := det.Observe(obs)
		ctrlState, _, ctrlTr := ctrl.Observe(obs)

		if refState != detState || refState != ctrlState {
			return fmt.Errorf("obs %d at %v: states diverge: reference %v, detector %v, controller %v",
				i, obs.At, refState, detState, ctrlState)
		}
		if !transitionsEqual(refTr, detTr) || !transitionsEqual(refTr, ctrlTr) {
			return fmt.Errorf("obs %d at %v: transitions diverge:\n  reference  %s\n  detector   %s\n  controller %s",
				i, obs.At, trString(refTr), trString(detTr), trString(ctrlTr))
		}
		if ref.Suspended() != det.Suspended() {
			return fmt.Errorf("obs %d at %v: suspension diverges: reference %v, detector %v",
				i, obs.At, ref.Suspended(), det.Suspended())
		}
		if !refState.Valid() {
			return fmt.Errorf("obs %d: state %v outside S1..S5", i, refState)
		}
		if refTr != nil {
			if !edges[[2]availability.State{refTr.From, refTr.To}] {
				return fmt.Errorf("obs %d: transition %v -> %v is not a Figure 5 edge", i, refTr.From, refTr.To)
			}
			if refTr.From != prev {
				return fmt.Errorf("obs %d: transition From = %v but the state was %v", i, refTr.From, prev)
			}
			if refTr.To != refState {
				return fmt.Errorf("obs %d: transition To = %v but the state is %v", i, refTr.To, refState)
			}
			if refTr.At > obs.At {
				return fmt.Errorf("obs %d: transition stamped %v, after the observation at %v", i, refTr.At, obs.At)
			}
			res.Transitions++
			if ev := builder.OnTransition(*refTr); ev != nil {
				events = append(events, *ev)
			}
		}
		if len(guest.violations) > 0 {
			return fmt.Errorf("obs %d: guest policy violations: %v", i, guest.violations)
		}
		if guest.alive != ctrl.GuestAlive() || guest.suspended != ctrl.GuestSuspended() {
			return fmt.Errorf("obs %d: controller books (alive %v, suspended %v) disagree with the guest (alive %v, suspended %v)",
				i, ctrl.GuestAlive(), ctrl.GuestSuspended(), guest.alive, guest.suspended)
		}
		if guest.alive && refState.Unavailable() {
			return fmt.Errorf("obs %d: guest still alive in %v", i, refState)
		}

		timingRef.Advance(obs.At, refState)
		timingDet.Advance(obs.At, detState)
		prev = refState
		res.Observations++
	}

	// Time-in-state must agree between the two accumulators, contain no
	// invalid time, and telescope to exactly the observed span.
	var sum sim.Time
	for _, st := range allStates {
		if timingRef.Total(st) != timingDet.Total(st) {
			return fmt.Errorf("time in %v diverges: reference %v, detector %v", st, timingRef.Total(st), timingDet.Total(st))
		}
		sum += timingRef.Total(st)
	}
	if inv := timingRef.Invalid(); inv != 0 {
		return fmt.Errorf("%v of residence time attributed to invalid states", inv)
	}
	if sum != last-first {
		return fmt.Errorf("time in state telescopes to %v, span was %v", sum, last-first)
	}

	if ev := builder.Flush(last + time.Second); ev != nil {
		events = append(events, *ev)
	}
	return checkTraceSurfaces(events, last+time.Second, res)
}

// checkTraceSurfaces round-trips a single-machine event list through both
// codecs and compares every indexed query against its linear counterpart at
// all event endpoints.
func checkTraceSurfaces(events []trace.Event, end sim.Time, res *Result) error {
	tr := trace.New(sim.Window{Start: 0, End: end}, sim.Calendar{}, 1)
	for _, e := range events {
		tr.Add(e)
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("built trace invalid: %w", err)
	}
	if err := roundTripTrace(tr); err != nil {
		return err
	}

	ix := tr.BuildIndex()
	pts := []sim.Time{0, end}
	for _, e := range tr.Events {
		pts = append(pts, e.Start, e.Start+1, e.End, e.End-1)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return checkIndexQueries(tr, ix, 0, pts)
}

// roundTripTrace asserts the v2 codec reproduces the trace's events
// exactly.
func roundTripTrace(tr *trace.Trace) error {
	// The v2 columnar codec always emits (machine, start, end) order, so
	// the reference is the sorted event list. A tiny block size forces
	// multi-block files on every non-trivial seed.
	ref := tr.Clone()
	ref.Sort()
	var col bytes.Buffer
	if err := ref.WriteBlocks(&col, &trace.BlockWriterOptions{BlockSize: 32}); err != nil {
		return fmt.Errorf("v2 encode: %w", err)
	}
	got, err := trace.ReadBlocks(&col)
	if err != nil {
		return fmt.Errorf("v2 decode: %w", err)
	}
	if err := sameEvents("v2 round trip", ref.Events, got.Events); err != nil {
		return err
	}
	if got.Span != tr.Span || got.Calendar != tr.Calendar || got.Machines != tr.Machines {
		return fmt.Errorf("v2 round trip lost header: %+v vs %+v", got, tr)
	}
	return nil
}

func sameEvents(what string, want, got []trace.Event) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s: event %d differs: %+v vs %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkTestbedSeed runs a small testbed four ways — fast in-memory (one
// shard, collected), sharded streaming at a random shard size, the naive
// per-period RunNaive oracle of this package, and a Reference replay over
// the exported observation stream — and requires identical events and
// occupancy, then round-trips the trace through the codecs.
func checkTestbedSeed(seed int64, res *Result) error {
	rng := sim.NewSource(seed).Stream("check/testbed")
	cfg := testbed.DefaultConfig()
	cfg.Machines = 1 + rng.Intn(2)
	cfg.Days = 1 + rng.Intn(2)
	cfg.Seed = seed
	cfg.Parallelism = 1 + rng.Intn(2)

	fast, fastOcc, err := testbed.RunWithOccupancy(cfg)
	if err != nil {
		return fmt.Errorf("fast run: %w", err)
	}
	naive, naiveOcc, err := RunNaive(cfg)
	if err != nil {
		return fmt.Errorf("naive run: %w", err)
	}
	sink := testbed.NewCollectSink(cfg)
	if err := testbed.RunSharded(cfg, 1+rng.Intn(cfg.Machines), sink); err != nil {
		return fmt.Errorf("sharded run: %w", err)
	}
	if err := sameEvents("fast vs naive", fast.Events, naive.Events); err != nil {
		return err
	}
	if err := sameEvents("fast vs sharded", fast.Events, sink.Trace.Events); err != nil {
		return err
	}
	for id := range fastOcc {
		for _, st := range allStates {
			if fastOcc[id].Fraction[st] != naiveOcc[id].Fraction[st] {
				return fmt.Errorf("machine %d occupancy in %v: fast %v, naive %v",
					id, st, fastOcc[id].Fraction[st], naiveOcc[id].Fraction[st])
			}
		}
	}

	// Reference replay: drive the naive observation stream through the
	// reference model and rebuild each machine's events and occupancy.
	end := sim.Time(cfg.Days) * sim.Day
	for id := 0; id < cfg.Machines; id++ {
		ref, err := NewReference(cfg.Detector)
		if err != nil {
			return err
		}
		builder := trace.NewBuilder(trace.MachineID(id))
		timing := availability.NewTimeInState(availability.S1)
		var events []trace.Event
		err = testbed.ObservationStream(cfg, trace.MachineID(id), func(obs availability.Observation) error {
			st, tr := ref.Observe(obs)
			timing.Advance(obs.At, st)
			if tr != nil {
				if ev := builder.OnTransition(*tr); ev != nil {
					events = append(events, *ev)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("observation stream: %w", err)
		}
		if ev := builder.Flush(end); ev != nil {
			events = append(events, *ev)
		}
		var want []trace.Event
		for _, e := range naive.Events {
			if e.Machine == trace.MachineID(id) {
				want = append(want, e)
			}
		}
		if err := sameEvents(fmt.Sprintf("machine %d reference replay", id), want, events); err != nil {
			return err
		}
		for _, st := range allStates {
			if timing.Fraction(st) != naiveOcc[id].Fraction[st] {
				return fmt.Errorf("machine %d reference occupancy in %v: %v, testbed %v",
					id, st, timing.Fraction(st), naiveOcc[id].Fraction[st])
			}
		}
	}

	if err := roundTripTrace(fast); err != nil {
		return err
	}
	// Online forecasting leg: the incremental forecaster fed the same raw
	// observation streams must agree with offline predictors batch-trained
	// on the recorded trace.
	if err := checkOnlineForecastSeed(cfg, fast, res); err != nil {
		return err
	}
	res.TestbedRuns++
	res.TestbedEvents += int64(len(fast.Events))
	return nil
}
