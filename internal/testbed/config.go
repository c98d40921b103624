package testbed

import (
	"fmt"
	"time"

	"repro/internal/availability"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/simos"
)

// Params tune the synthetic lab workload. The defaults are calibrated so
// the resulting trace lands inside every range the paper's Table 2 and
// Figures 6-7 report; the calibration tests in this package enforce that.
type Params struct {
	// BusyEpisodesWeekday/Weekend are the mean number of qualifying CPU
	// spike clusters per machine-day.
	BusyEpisodesWeekday float64
	BusyEpisodesWeekend float64
	// ExtraSpikeProb is the chance an episode carries one more qualifying
	// spike after each spike (geometric); multi-spike episodes produce the
	// sub-5-minute availability intervals of Figure 6.
	ExtraSpikeProb float64
	// SpikeLoad is the uniform range of a spike's CPU contribution.
	SpikeLoad [2]float64
	// SpikeDurMedian/Sigma/Min parameterize log-normal spike durations.
	SpikeDurMedian time.Duration
	SpikeDurSigma  float64
	SpikeDurMin    time.Duration
	// SpikeGap is the pause between spikes of one episode.
	SpikeGap [2]time.Duration
	// ShortSpikesPerDay are transient (< 1 min) spikes that only suspend a
	// guest and must not be counted as unavailability.
	ShortSpikesPerDay float64
	// MemHogsWeekday/Weekend are mean memory-exhaustion episodes per day.
	MemHogsWeekday float64
	MemHogsWeekend float64
	// MemHogSize is the hog's resident set (uniform range).
	MemHogSize [2]int64
	// MemHogDur is the hog's lifetime (uniform range).
	MemHogDur [2]time.Duration
	// PoissonPlacement disables the stratified (quasi-regular) placement
	// of busy episodes and scatters them as a pure Poisson process. Only
	// the stratified default concentrates availability intervals in the
	// 2-4 hour band of Figure 6; the placement sweep of the ablations
	// golden quantifies this.
	PoissonPlacement bool
	// MachineRateSpread makes machines heterogeneous: each machine's
	// episode and memory-hog rates are scaled by a per-machine factor
	// drawn uniformly from [1-spread/2, 1+spread/2]. The paper's tight
	// Table 2 ranges suggest near-homogeneous lab machines (default 0);
	// the proactive-scheduling experiment uses a wider spread.
	MachineRateSpread float64
	// URRPerDay is the mean rate of revocations/failures per machine-day.
	URRPerDay float64
	// RebootShare is the fraction of URR that are console reboots.
	RebootShare float64
	// RebootDur and FailureDur are outage lengths (uniform ranges).
	RebootDur  [2]time.Duration
	FailureDur [2]time.Duration
	// Ambient load: base plus a diurnal component scaled by AmbientAmp.
	AmbientBase float64
	AmbientAmp  float64
	// UpdatedbStart/Dur/Load describe the nightly cron job.
	UpdatedbStart time.Duration
	UpdatedbDur   time.Duration
	UpdatedbLoad  float64
	// DiurnalWeekday/Weekend weight each hour of day for event placement
	// and the ambient load shape.
	DiurnalWeekday [24]float64
	DiurnalWeekend [24]float64
}

// DefaultParams returns the calibrated lab workload.
func DefaultParams() Params {
	return Params{
		BusyEpisodesWeekday: 2.6,
		BusyEpisodesWeekend: 2.0,
		ExtraSpikeProb:      0.10,
		SpikeLoad:           [2]float64{0.70, 0.97},
		SpikeDurMedian:      3 * time.Minute,
		SpikeDurSigma:       0.6,
		SpikeDurMin:         85 * time.Second,
		SpikeGap:            [2]time.Duration{45 * time.Second, 4 * time.Minute},
		ShortSpikesPerDay:   6,
		MemHogsWeekday:      1.25,
		MemHogsWeekend:      0.9,
		MemHogSize:          [2]int64{1100 * simos.MB, 1500 * simos.MB},
		MemHogDur:           [2]time.Duration{2 * time.Minute, 12 * time.Minute},
		URRPerDay:           0.08,
		RebootShare:         0.9,
		RebootDur:           [2]time.Duration{20 * time.Second, 40 * time.Second},
		FailureDur:          [2]time.Duration{30 * time.Minute, 6 * time.Hour},
		AmbientBase:         0.03,
		AmbientAmp:          0.25,
		UpdatedbStart:       4 * time.Hour,
		UpdatedbDur:         30 * time.Minute,
		UpdatedbLoad:        0.88,
		DiurnalWeekday: [24]float64{
			0.8, 0.6, 0.4, 0.3, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 3.5, 4.0,
			4.0, 4.0, 4.0, 4.0, 4.0, 3.8, 3.2, 3.0, 3.0, 2.6, 2.0, 1.4,
		},
		DiurnalWeekend: [24]float64{
			0.9, 0.7, 0.5, 0.3, 0.2, 0.2, 0.2, 0.3, 0.5, 1.0, 1.6, 2.2,
			2.6, 2.6, 2.6, 2.6, 2.6, 2.6, 2.2, 2.2, 2.0, 1.8, 1.6, 1.2,
		},
	}
}

// EnterpriseParams models the follow-up testbed the paper proposes in its
// future work (Section 6): enterprise desktop machines. Compared to the
// student lab, activity concentrates sharply in office hours (9-18) on
// weekdays, evenings and weekends are nearly idle, memory pressure is
// rarer (single user, predictable applications), and — as the paper
// anticipates for single-owner machines — console reboots are much rarer,
// so URR is dominated by genuine failures.
func EnterpriseParams() Params {
	p := DefaultParams()
	p.BusyEpisodesWeekday = 3.0
	p.BusyEpisodesWeekend = 0.3
	p.MemHogsWeekday = 0.5
	p.MemHogsWeekend = 0.1
	p.URRPerDay = 0.02
	p.RebootShare = 0.3
	p.AmbientAmp = 0.30
	p.DiurnalWeekday = [24]float64{
		0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.5, 2.0, 4.0, 4.5, 4.5,
		3.5, 4.0, 4.5, 4.5, 4.0, 3.5, 2.0, 0.8, 0.4, 0.3, 0.2, 0.1,
	}
	p.DiurnalWeekend = [24]float64{
		0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.3, 0.4, 0.4,
		0.4, 0.4, 0.4, 0.4, 0.4, 0.3, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1,
	}
	return p
}

// Config describes a testbed simulation.
type Config struct {
	// Machines is the number of lab machines (the paper's testbed has 20).
	Machines int
	// Days is the traced duration (the paper traced ~92 days).
	Days int
	// Seed roots all randomness.
	Seed int64
	// RAM and KernelMem describe the machines (paper: > 1 GB physical).
	RAM       int64
	KernelMem int64
	// Monitor configures the per-machine sampler.
	Monitor monitor.Config
	// Detector configures the per-machine availability detector.
	Detector availability.Config
	// Workload tunes the synthetic lab load.
	Workload Params
	// Parallelism bounds concurrent machine simulations (default GOMAXPROCS).
	Parallelism int
	// Metrics, when set, receives live fleet-wide instrumentation:
	// per-state residence-time histograms and transition-rate counters,
	// updated as machines simulate so a long run can be scraped while it
	// is in flight. Instrumentation fires only on state changes and never
	// touches the random streams, so fixed-seed outputs are byte-identical
	// with or without it.
	Metrics *obs.Registry
}

// DefaultConfig reproduces the paper's testbed: 20 machines, 92 days
// (August through November 2005), Linux thresholds.
func DefaultConfig() Config {
	return Config{
		Machines:  20,
		Days:      92,
		Seed:      2005,
		RAM:       1536 * simos.MB,
		KernelMem: 100 * simos.MB,
		Monitor:   monitor.DefaultConfig(),
		Detector:  availability.DefaultConfig(),
		Workload:  DefaultParams(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Machines == 0 {
		c.Machines = d.Machines
	}
	if c.Days == 0 {
		c.Days = d.Days
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.RAM == 0 {
		c.RAM = d.RAM
	}
	if c.KernelMem == 0 {
		c.KernelMem = d.KernelMem
	}
	if c.Monitor.Period == 0 {
		c.Monitor = d.Monitor
	}
	if c.Workload.SpikeDurMedian == 0 {
		c.Workload = d.Workload
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("testbed: need at least one machine, got %d", c.Machines)
	}
	if c.Days <= 0 {
		return fmt.Errorf("testbed: need at least one day, got %d", c.Days)
	}
	if c.RAM <= 0 || c.KernelMem < 0 || c.KernelMem >= c.RAM {
		return fmt.Errorf("testbed: bad memory configuration RAM=%d kernel=%d", c.RAM, c.KernelMem)
	}
	if err := c.Monitor.Validate(); err != nil {
		return err
	}
	w := c.Workload
	if w.SpikeLoad[0] > w.SpikeLoad[1] || w.SpikeGap[0] > w.SpikeGap[1] ||
		w.MemHogSize[0] > w.MemHogSize[1] || w.MemHogDur[0] > w.MemHogDur[1] {
		return fmt.Errorf("testbed: inverted workload range")
	}
	if w.RebootShare < 0 || w.RebootShare > 1 {
		return fmt.Errorf("testbed: reboot share %v outside [0,1]", w.RebootShare)
	}
	if w.MachineRateSpread < 0 || w.MachineRateSpread > 2 {
		return fmt.Errorf("testbed: machine rate spread %v outside [0,2]", w.MachineRateSpread)
	}
	return nil
}
