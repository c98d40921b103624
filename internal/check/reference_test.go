package check

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

// refSample is one remembered observation plus whether it qualifies as part
// of a CPU spike: service alive, memory sufficient, and LH strictly above
// Th2 — the only samples that can extend a transient window.
type refSample struct {
	obs   availability.Observation
	spike bool
}

// Reference is a line-by-line transcription of the paper's five-state
// semantics (Sections 3.2 and 4), written for obviousness rather than
// speed: it remembers every observation and every resulting state, and
// re-derives the transient-spike window on each sample by scanning the
// history backwards. There is no incremental spike bookkeeping, no
// smoothing shortcut and no skip-ahead — the properties the production
// Detector optimizes are recomputed from first principles here, so the two
// can only agree if the optimizations are faithful.
//
// Semantics, in classification order:
//
//  1. Service dead -> S5 (URR dominates; a dead machine has no load).
//  2. Free memory below the guest demand (the observation's own demand, or
//     the configured working set when unset) -> S4 (thrashing).
//  3. LH strictly above Th2: if the machine is already in S3 it stays
//     there. Otherwise find the first observation of the current
//     uninterrupted run of spike samples; if the run has lasted at least
//     TransientWindow the machine is S3, with the transition backdated to
//     the run's first sample (the instant the resource actually became
//     unusable). Shorter runs leave the machine in its pre-spike available
//     state with the guest suspended.
//  4. LH at or above Th1 -> S2; below -> S1.
//
// Memory grows linearly with the observation count — acceptable for a
// verification oracle, never for production.
type Reference struct {
	cfg    availability.Config
	hist   []refSample
	states []availability.State // state after each historical observation
	state  availability.State
	susp   bool
}

// NewReference builds a reference model with the same configuration
// normalization and validation the production detector applies, so both
// sides of a differential run resolve defaults identically.
func NewReference(cfg availability.Config) (*Reference, error) {
	det, err := availability.NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &Reference{cfg: det.Config(), state: availability.S1}, nil
}

// Config returns the effective (normalized) configuration.
func (r *Reference) Config() availability.Config { return r.cfg }

// Suspended reports whether the hypothetical guest is suspended — true
// exactly while a spike run is open but has not yet outlived the transient
// window.
func (r *Reference) Suspended() bool { return r.susp }

// Observe consumes one observation and returns the resulting state plus a
// transition record when the state changed, mirroring Detector.Observe.
func (r *Reference) Observe(obs availability.Observation) (availability.State, *availability.Transition) {
	th := r.cfg.Thresholds
	demand := obs.GuestDemand
	if demand == 0 {
		demand = r.cfg.GuestWorkingSet
	}
	memOK := obs.FreeMem >= demand
	spike := obs.Alive && memOK && obs.HostCPU > th.Th2
	r.hist = append(r.hist, refSample{obs: obs, spike: spike})
	j := len(r.hist) - 1

	next := availability.S1
	// Transition attribution: by default the observation itself; a
	// persistent spike backdates to the sample that opened the run.
	trAt, trLH, trMem := obs.At, obs.HostCPU, obs.FreeMem
	susp := false

	switch {
	case !obs.Alive:
		next = availability.S5

	case !memOK:
		next = availability.S4

	case spike:
		if r.state == availability.S3 {
			next = availability.S3
			break
		}
		// Walk back to the first sample of the uninterrupted spike run.
		k := j
		for k > 0 && r.hist[k-1].spike {
			k--
		}
		start := r.hist[k].obs
		if obs.At-start.At >= r.cfg.TransientWindow {
			next = availability.S3
			if start.At < obs.At {
				trAt, trLH, trMem = start.At, start.HostCPU, start.FreeMem
			}
		} else {
			// Transient so far: the pre-spike availability state persists
			// (mapped to S2 if the run began out of an unavailable state)
			// and the guest is suspended.
			pre := availability.S1
			if k > 0 {
				pre = r.states[k-1]
			}
			if !pre.Available() {
				pre = availability.S2
			}
			next = pre
			susp = true
		}

	case obs.HostCPU >= th.Th1:
		next = availability.S2

	default:
		next = availability.S1
	}

	r.states = append(r.states, next)
	r.susp = susp
	prev := r.state
	r.state = next
	if next == prev {
		return next, nil
	}
	return next, &availability.Transition{At: trAt, From: prev, To: next, LH: trLH, FreeMem: trMem}
}

// FigureFiveEdges is the legal transition structure of the paper's Figure 5
// plus the recovery edges, as an independent statement of the invariant the
// driver enforces on every emitted transition. S4->S3 and S5->S3 are
// deliberately absent: S3 is only entered from an available state, after a
// spike outlives the transient window afresh.
func FigureFiveEdges() map[[2]availability.State]bool {
	const (
		s1 = availability.S1
		s2 = availability.S2
		s3 = availability.S3
		s4 = availability.S4
		s5 = availability.S5
	)
	return map[[2]availability.State]bool{
		{s1, s2}: true, {s2, s1}: true,
		{s1, s3}: true, {s1, s4}: true, {s1, s5}: true,
		{s2, s3}: true, {s2, s4}: true, {s2, s5}: true,
		{s3, s1}: true, {s3, s2}: true,
		{s4, s1}: true, {s4, s2}: true,
		{s5, s1}: true, {s5, s2}: true,
		{s3, s4}: true, {s3, s5}: true,
		{s4, s5}: true, {s5, s4}: true,
	}
}

func obsAt(at time.Duration, cpu float64) availability.Observation {
	return availability.Observation{At: at, HostCPU: cpu, FreeMem: 1 << 30, Alive: true}
}

// TestReferenceSpikeBackdating walks the canonical persistent-spike
// sequence by hand: the S3 transition must be stamped at the spike's first
// sample with that sample's load, not at window expiry.
func TestReferenceSpikeBackdating(t *testing.T) {
	ref, err := NewReference(availability.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, tr := ref.Observe(obsAt(0, 0.1)); st != availability.S1 || tr != nil {
		t.Fatalf("idle start: %v, %v", st, tr)
	}
	// Spike opens at t=15s with LH 0.9; stays transient through 60s.
	if st, _ := ref.Observe(obsAt(15*time.Second, 0.9)); st != availability.S1 {
		t.Fatalf("transient spike should hold S1, got %v", st)
	}
	if !ref.Suspended() {
		t.Fatal("guest not suspended during the transient spike")
	}
	if st, _ := ref.Observe(obsAt(30*time.Second, 0.95)); st != availability.S1 {
		t.Fatalf("still transient at 15s of spike, got %v", st)
	}
	// 75s - 15s = 60s: the window is met exactly; S3, backdated to 15s.
	st, tr := ref.Observe(obsAt(75*time.Second, 0.85))
	if st != availability.S3 {
		t.Fatalf("persistent spike should be S3, got %v", st)
	}
	if tr == nil || tr.At != 15*time.Second || tr.LH != 0.9 {
		t.Fatalf("transition not backdated to the spike start: %+v", tr)
	}
	if ref.Suspended() {
		t.Fatal("suspension must clear on entering S3")
	}
}

// TestReferenceSpikeSubsides pins the transient path: a spike shorter than
// the window never leaves the available states.
func TestReferenceSpikeSubsides(t *testing.T) {
	ref, err := NewReference(availability.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Observe(obsAt(0, 0.3)) // S2
	if st, tr := ref.Observe(obsAt(15*time.Second, 0.9)); st != availability.S2 || tr != nil {
		t.Fatalf("transient spike from S2: %v, %v", st, tr)
	}
	if st, _ := ref.Observe(obsAt(30*time.Second, 0.1)); st != availability.S1 {
		t.Fatalf("subsided spike should drop to S1, got %v", st)
	}
	if ref.Suspended() {
		t.Fatal("suspension survived the spike's end")
	}
}

// TestReferenceMemoryAndDeath checks the classification order: death beats
// thrashing beats CPU, and the exact free-memory boundary is "enough".
func TestReferenceMemoryAndDeath(t *testing.T) {
	ref, err := NewReference(availability.Config{GuestWorkingSet: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := ref.Observe(availability.Observation{At: 0, HostCPU: 0.1, FreeMem: 100, Alive: true}); st != availability.S1 {
		t.Fatalf("free == demand must be sufficient, got %v", st)
	}
	if st, _ := ref.Observe(availability.Observation{At: sim.Time(time.Second), HostCPU: 0.1, FreeMem: 99, Alive: true}); st != availability.S4 {
		t.Fatalf("free < demand must thrash, got %v", st)
	}
	if st, _ := ref.Observe(availability.Observation{At: sim.Time(2 * time.Second), FreeMem: 0, Alive: false}); st != availability.S5 {
		t.Fatalf("dead service must be S5, got %v", st)
	}
	// An explicit per-observation demand overrides the configured one.
	if st, _ := ref.Observe(availability.Observation{At: sim.Time(3 * time.Second), HostCPU: 0.1, FreeMem: 100, GuestDemand: 101, Alive: true}); st != availability.S4 {
		t.Fatalf("explicit demand ignored, got %v", st)
	}
}

// TestReferenceNoS3FromFailureStates asserts the deliberate Figure 5
// omission: after thrashing or an outage clears into a spike, the machine
// sits in S2 (suspended) until the window elapses afresh — never S3
// directly.
func TestReferenceNoS3FromFailureStates(t *testing.T) {
	ref, err := NewReference(availability.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Observe(availability.Observation{At: 0, FreeMem: 0, Alive: false}) // S5
	st, tr := ref.Observe(obsAt(15*time.Second, 0.9))
	if st != availability.S2 {
		t.Fatalf("spike right after an outage must suspend in S2, got %v", st)
	}
	if tr == nil || tr.From != availability.S5 || tr.To != availability.S2 {
		t.Fatalf("expected S5 -> S2, got %+v", tr)
	}
	if !ref.Suspended() {
		t.Fatal("guest should be suspended")
	}
}
