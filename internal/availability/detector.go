package availability

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Thresholds are the empirically derived host-CPU-load thresholds of
// Section 3.2. Th1 is the load above which a guest must drop to the lowest
// priority (S1 -> S2); Th2 is the load above which no guest priority keeps
// the host slowdown acceptable (-> S3). Slowdown is the "noticeable
// slowdown" bound the thresholds were calibrated against (5% in the paper).
type Thresholds struct {
	Th1      float64
	Th2      float64
	Slowdown float64
	// Explicit marks zero-valued Th1/Th2 as deliberate. Without it, a
	// fully zero threshold pair means "unset" and takes the Linux
	// defaults, and a half-set pair (exactly one of Th1/Th2 nonzero) is a
	// configuration error — historically it silently ran with the other
	// threshold at 0, classifying every idle host as S2.
	Explicit bool
}

// LinuxThresholds are the values the paper reports for its Linux testbed
// (Section 4): Th1 = 20%, Th2 = 60%, at a 5% slowdown bound.
func LinuxThresholds() Thresholds {
	return Thresholds{Th1: 0.20, Th2: 0.60, Slowdown: 0.05}
}

// SolarisThresholds are the values measured on the paper's 300 MHz Solaris
// machine (Section 3.2.3): Th1 ≈ 20%, Th2 between 22% and 57%; we take the
// midpoint of the reported band.
func SolarisThresholds() Thresholds {
	return Thresholds{Th1: 0.20, Th2: 0.40, Slowdown: 0.05}
}

// Config parameterizes a Detector.
type Config struct {
	// Thresholds for CPU contention; defaulted to LinuxThresholds.
	Thresholds Thresholds
	// TransientWindow is how long LH must stay above Th2 before the spike
	// counts as S3 rather than a suspension (1 minute in the paper). The
	// window is only resolved when the sampling period is shorter: at a
	// period of TransientWindow or more, any spike seen in two consecutive
	// samples has already lasted the window and counts as S3.
	TransientWindow time.Duration
	// GuestWorkingSet is the memory demand (bytes) used for the S4 test
	// when an observation does not carry an explicit guest demand. The
	// testbed monitor uses a reference guest footprint here.
	GuestWorkingSet int64
	// ResumeWindow is how long contention must persist while the guest is
	// suspended before the guest is terminated (also 1 minute in the
	// paper's controller); exposed for the guest controller.
	ResumeWindow time.Duration
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Thresholds:      LinuxThresholds(),
		TransientWindow: time.Minute,
		GuestWorkingSet: 150 << 20, // a typical large guest working set
		ResumeWindow:    time.Minute,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	// Only a fully unset pair defaults; a half-set pair is left alone for
	// Validate to reject, and Explicit zeros are honored as configured.
	if !c.Thresholds.Explicit && c.Thresholds.Th1 == 0 && c.Thresholds.Th2 == 0 {
		c.Thresholds = d.Thresholds
	}
	if c.Thresholds.Slowdown == 0 {
		c.Thresholds.Slowdown = d.Thresholds.Slowdown
	}
	if c.TransientWindow == 0 {
		c.TransientWindow = d.TransientWindow
	}
	if c.GuestWorkingSet == 0 {
		c.GuestWorkingSet = d.GuestWorkingSet
	}
	if c.ResumeWindow == 0 {
		c.ResumeWindow = d.ResumeWindow
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	t := c.Thresholds
	if t.Th1 < 0 || t.Th1 > 1 || t.Th2 < 0 || t.Th2 > 1 {
		return fmt.Errorf("availability: thresholds must lie in [0,1], got Th1=%v Th2=%v", t.Th1, t.Th2)
	}
	if !t.Explicit && (t.Th1 == 0) != (t.Th2 == 0) {
		return fmt.Errorf("availability: half-set thresholds Th1=%v Th2=%v: set both, or mark a deliberate zero with Thresholds.Explicit", t.Th1, t.Th2)
	}
	if t.Th1 > t.Th2 {
		return fmt.Errorf("availability: Th1 (%v) must not exceed Th2 (%v)", t.Th1, t.Th2)
	}
	if c.TransientWindow < 0 {
		return fmt.Errorf("availability: negative transient window %v", c.TransientWindow)
	}
	return nil
}

// Observation is one non-intrusive sample of a machine, the only input the
// detector consumes: the aggregate CPU usage of all host processes, the
// free memory available to a guest, the guest's memory demand, and whether
// the FGCS service is alive.
type Observation struct {
	At sim.Time
	// HostCPU is LH: total CPU usage of host processes, in [0,1].
	HostCPU float64
	// FreeMem is memory available for a guest, in bytes.
	FreeMem int64
	// GuestDemand is the observing guest's working-set size in bytes;
	// when 0, the detector falls back to Config.GuestWorkingSet.
	GuestDemand int64
	// Alive reports whether the FGCS service responded; false means URR.
	Alive bool
}

// Transition records a state change detected at time At.
type Transition struct {
	At   sim.Time
	From State
	To   State
	// LH is the host CPU load observed at the transition.
	LH float64
	// FreeMem is the free memory observed at the transition.
	FreeMem int64
}

// Detector is the state machine that turns a stream of Observations into
// five-state availability, applying the transient-spike suspension rule.
// Create one per machine with NewDetector; it is not safe for concurrent
// use (run one per machine goroutine).
type Detector struct {
	cfg   Config
	state State
	// spikeStart is when LH first exceeded Th2 in the current spike;
	// spikeActive reports whether a spike is in progress. spikeObs is the
	// observation that opened the spike — the load actually seen at the
	// instant the resource became unusable, reported when a persistent
	// spike is backdated into S3.
	spikeStart  sim.Time
	spikeObs    Observation
	spikeActive bool
	// preSpike remembers the state to return to if the spike subsides.
	preSpike  State
	suspended bool
}

// NewDetector returns a detector in state S1 with the given configuration
// (zero fields are defaulted to the paper's values).
func NewDetector(cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, state: S1, preSpike: S1}, nil
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// State returns the current availability state.
func (d *Detector) State() State { return d.state }

// Suspended reports whether the (hypothetical) guest is currently suspended
// because of a transient spike above Th2.
func (d *Detector) Suspended() bool { return d.suspended }

// Observe consumes one observation and returns the resulting state plus a
// transition record if the state changed (nil otherwise). Observations must
// arrive in nondecreasing time order.
func (d *Detector) Observe(obs Observation) (State, *Transition) {
	next := d.classify(obs)
	if next == d.state {
		return d.state, nil
	}
	tr := &Transition{At: obs.At, From: d.state, To: next, LH: obs.HostCPU, FreeMem: obs.FreeMem}
	// Backdate a CPU-unavailability transition to the start of the spike:
	// the resource actually became unusable when the load first exceeded
	// Th2, not when the transient window expired. The load and free memory
	// reported with it come from the spike-start observation too, so trace
	// analyzers see the machine as it was at the transition instant rather
	// than at window expiry.
	if next == S3 && d.spikeActive && d.spikeStart < obs.At {
		tr.At = d.spikeStart
		tr.LH = d.spikeObs.HostCPU
		tr.FreeMem = d.spikeObs.FreeMem
	}
	d.state = next
	return next, tr
}

// classify computes the next state and maintains spike bookkeeping.
func (d *Detector) classify(obs Observation) State {
	th := d.cfg.Thresholds

	// URR dominates everything: a dead machine has no load to interpret.
	if !obs.Alive {
		d.spikeActive = false
		d.suspended = false
		return S5
	}

	// Memory thrashing is orthogonal to CPU contention (Section 3.2.3) and
	// demands immediate termination.
	demand := obs.GuestDemand
	if demand == 0 {
		demand = d.cfg.GuestWorkingSet
	}
	if obs.FreeMem < demand {
		d.spikeActive = false
		d.suspended = false
		return S4
	}

	switch {
	case obs.HostCPU > th.Th2:
		if d.state == S3 {
			// Already unavailable; stay there until the load subsides.
			return S3
		}
		if !d.spikeActive {
			d.spikeActive = true
			d.spikeStart = obs.At
			d.spikeObs = obs
			d.preSpike = d.state
			if !d.preSpike.Available() {
				d.preSpike = S2
			}
			d.suspended = true
		}
		if obs.At-d.spikeStart >= d.cfg.TransientWindow {
			// The spike outlived the transient window: genuine S3.
			d.suspended = false
			return S3
		}
		// Transient so far: remain in the pre-spike availability state
		// with the guest suspended (paper: S1/S2 "also contain the cases
		// when LH transiently rises above Th2").
		return d.preSpike
	case obs.HostCPU >= th.Th1:
		d.spikeActive = false
		d.suspended = false
		return S2
	default:
		d.spikeActive = false
		d.suspended = false
		return S1
	}
}

// FastForward resynchronizes the detector after a caller advanced the
// availability computation out of band (the testbed's span-skipping
// runner): it adopts the given state without running the classifier. The
// caller must guarantee that state is exactly what Observe would have
// produced for every skipped observation and that no spike can be in
// progress over the skipped span (host CPU at or below Th2, or the machine
// dead throughout).
func (d *Detector) FastForward(state State) {
	d.state = state
	d.spikeActive = false
	d.suspended = false
}

// Reset returns the detector to its initial S1 state (e.g. after a machine
// reboot completes and monitoring restarts).
func (d *Detector) Reset() {
	d.state = S1
	d.preSpike = S1
	d.spikeActive = false
	d.suspended = false
}
