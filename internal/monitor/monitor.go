// Package monitor implements the paper's non-intrusive resource monitor:
// a periodic sampler of host CPU usage, free memory and FGCS-service
// liveness (the vmstat/prstat equivalent of Section 5), with optional
// smoothing, feeding availability.Observation streams to the detector.
// Engine wires it into the paper's per-machine detection module.
package monitor

import (
	"fmt"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/simos"
)

// Sample is one raw measurement of a machine.
type Sample struct {
	At sim.Time
	// HostCPU is the host processes' aggregate CPU usage over the last
	// sampling period, in [0, 1].
	HostCPU float64
	// FreeMem is the memory available for a guest, in bytes.
	FreeMem int64
	// Alive reports whether the FGCS service responded.
	Alive bool
}

// Config parameterizes a Monitor.
type Config struct {
	// Period is the sampling interval (the paper's monitor samples with
	// lightweight utilities every few seconds; default 15 s).
	Period time.Duration
	// SmoothWindow averages host CPU over the last N samples to suppress
	// single-sample noise. 1 disables smoothing.
	SmoothWindow int
	// GuestDemand is attached to observations as the guest working set
	// (0 lets the detector fall back to its configured reference).
	GuestDemand int64
}

// DefaultConfig returns the testbed monitor configuration.
func DefaultConfig() Config {
	return Config{Period: 15 * time.Second, SmoothWindow: 2}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Period == 0 {
		c.Period = d.Period
	}
	if c.SmoothWindow == 0 {
		c.SmoothWindow = d.SmoothWindow
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("monitor: period must be positive, got %v", c.Period)
	}
	if c.SmoothWindow < 1 {
		return fmt.Errorf("monitor: smoothing window must be >= 1, got %d", c.SmoothWindow)
	}
	return nil
}

// Monitor converts raw samples into detector observations, applying a
// moving-average smoothing to the CPU series. The zero value is unusable;
// construct with New.
type Monitor struct {
	cfg  Config
	ring []float64
	next int
	n    int
}

// New builds a Monitor (zero config fields take defaults).
func New(cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg, ring: make([]float64, cfg.SmoothWindow)}, nil
}

// Config returns the effective configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Observe smooths one sample into an Observation. Dead samples reset the
// smoothing window (a rebooted machine starts fresh).
func (m *Monitor) Observe(s Sample) availability.Observation {
	if !s.Alive {
		m.Reset()
		return availability.Observation{At: s.At, Alive: false}
	}
	return availability.Observation{
		At:          s.At,
		HostCPU:     m.Smooth(s.HostCPU),
		FreeMem:     s.FreeMem,
		GuestDemand: m.cfg.GuestDemand,
		Alive:       true,
	}
}

// Smooth pushes one raw CPU value through the smoothing window and returns
// the resulting moving average. It is the smoothing core of Observe,
// exposed for callers (the testbed's span-skipping runner) that advance
// the window without building full samples.
func (m *Monitor) Smooth(v float64) float64 {
	m.ring[m.next] = v
	m.next++
	if m.next == len(m.ring) {
		m.next = 0
	}
	if m.n < len(m.ring) {
		m.n++
	}
	sum := 0.0
	for i := 0; i < m.n; i++ {
		sum += m.ring[i]
	}
	return sum / float64(m.n)
}

// Prime resets the smoothing window and replays the given values, oldest
// first — the state a monitor reaches after observing exactly those CPU
// values since its last reset. Callers that advance the smoothing
// computation out of band (the testbed's span-skipping runner) use it to
// resync with the window's last SmoothWindow raw values. With the default
// two-sample window this reproduces future smoothed values bit-for-bit:
// the replay may rotate the ring relative to stepping sample-by-sample,
// but a two-term sum is exactly commutative.
func (m *Monitor) Prime(vals ...float64) {
	m.Reset()
	for _, v := range vals {
		m.Smooth(v)
	}
}

// Reset clears the smoothing history.
func (m *Monitor) Reset() {
	m.n = 0
	m.next = 0
}

// MachineSampler samples a simulated simos machine, measuring host CPU
// usage between consecutive calls — the non-intrusive view the paper's
// monitor has (it never inspects guest processes).
type MachineSampler struct {
	m    *simos.Machine
	last simos.Snapshot
}

// NewMachineSampler starts sampling from the machine's current counters.
func NewMachineSampler(m *simos.Machine) *MachineSampler {
	return &MachineSampler{m: m, last: m.Snapshot()}
}

// Sample advances nothing; it reads usage since the previous call. Callers
// drive the machine between calls.
func (s *MachineSampler) Sample() Sample {
	cur := s.m.Snapshot()
	out := Sample{At: cur.At, FreeMem: s.m.FreeMemForGuest(), Alive: true}
	if u, err := simos.UsageBetween(s.last, cur); err == nil {
		out.HostCPU = u.Host
	}
	s.last = cur
	return out
}
