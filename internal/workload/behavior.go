package workload

import (
	"math/rand"
	"time"
)

// DefaultPeriod is the duty cycle length of the synthetic programs. The
// paper's synthetic hosts adjust sleep times around their compute bursts to
// hit a target isolated usage; 2.5 s cycles put typical burst lengths in
// the same range as the scheduler's interactivity-credit cap, which is what
// makes noticeable slowdown appear only beyond Th1.
const DefaultPeriod = 2500 * time.Millisecond

// CPUBound is a completely CPU-bound program (the paper's canonical guest):
// it always has work and never sleeps voluntarily.
type CPUBound struct{}

// NextPhase returns an effectively endless stream of compute.
func (CPUBound) NextPhase(*rand.Rand) (compute, sleep time.Duration, ok bool) {
	return time.Second, 0, true
}

// DutyCycle alternates compute and sleep to achieve a target isolated CPU
// usage. A fresh DutyCycle starts with a random partial sleep so that
// multiple processes in a host group are phase-desynchronized, as real
// independently started programs are.
type DutyCycle struct {
	// Usage is the isolated CPU usage in [0, 1].
	Usage float64
	// Period is the cycle length; DefaultPeriod if zero.
	Period time.Duration
	// Jitter varies each cycle's period by a uniform +-fraction, keeping
	// the usage ratio intact (0 = strictly periodic).
	Jitter float64

	started bool
}

// NextPhase emits the next compute/sleep pair.
func (d *DutyCycle) NextPhase(r *rand.Rand) (compute, sleep time.Duration, ok bool) {
	period := d.Period
	if period == 0 {
		period = DefaultPeriod
	}
	u := d.Usage
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if !d.started {
		d.started = true
		// Random initial offset: sleep a fraction of a period first.
		if off := time.Duration(r.Int63n(int64(period))); off > 0 {
			return 0, off, true
		}
	}
	if d.Jitter > 0 {
		f := 1 + d.Jitter*(2*r.Float64()-1)
		period = time.Duration(float64(period) * f)
	}
	compute = time.Duration(float64(period) * u)
	sleep = period - compute
	return compute, sleep, true
}

// FiniteWork runs a fixed amount of CPU work in DefaultPeriod duty cycles
// and then terminates — the shape of a compute-bound batch guest job with a known
// length, used by the proactive-scheduling experiments.
type FiniteWork struct {
	// Total is the CPU time the job needs.
	Total time.Duration
	// Usage is the job's duty cycle while it runs (1 = fully CPU-bound).
	Usage float64

	consumed time.Duration
}

// NextPhase emits work until Total is consumed, then terminates.
func (f *FiniteWork) NextPhase(r *rand.Rand) (compute, sleep time.Duration, ok bool) {
	if f.consumed >= f.Total {
		return 0, 0, false
	}
	u := f.Usage
	if u <= 0 || u > 1 {
		u = 1
	}
	compute = time.Duration(float64(DefaultPeriod) * u)
	if remaining := f.Total - f.consumed; compute > remaining {
		compute = remaining
	}
	f.consumed += compute
	if u < 1 {
		sleep = time.Duration(float64(compute) * (1 - u) / u)
	}
	return compute, sleep, true
}
