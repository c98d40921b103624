package simos

import (
	"fmt"
	"time"
)

// MB is a convenience for memory sizes.
const MB = int64(1) << 20

// SchedParams tune the simulated scheduler. The defaults are calibrated so
// that the contention experiments land at the paper's Linux thresholds
// (Th1 ≈ 20%, Th2 ≈ 60%); see internal/contention's calibration tests.
type SchedParams struct {
	// Tick is the scheduling quantum; one lottery draw per tick.
	Tick time.Duration
	// CreditCap bounds the interactivity credit a process can bank while
	// sleeping (the Linux-2.4 counter accumulates roughly 2x the default
	// timeslice; 500 ms is the same order of magnitude).
	CreditCap time.Duration
	// InteractiveBoost multiplies the weight of a process holding credit.
	InteractiveBoost float64
	// ThrashFactor is the fraction of a tick that turns into useful work
	// (and accounted CPU time) while the machine is thrashing.
	ThrashFactor float64
	// NiceWeightBase sets the arithmetic nice scale: a process at nice n
	// weighs NiceWeightBase - n (clamped at n = 19). The default 22 gives
	// a nice-19 hog ~12% against a nice-0 hog, which calibrates Th2 to
	// the paper's 60%; lowering the base starves reniced guests harder
	// and pushes Th2 up (the nice-base sweep of the ablations golden).
	NiceWeightBase float64
}

// DefaultSchedParams returns the calibrated defaults.
func DefaultSchedParams() SchedParams {
	return SchedParams{
		Tick:             time.Millisecond,
		CreditCap:        500 * time.Millisecond,
		InteractiveBoost: 8,
		ThrashFactor:     0.1,
		NiceWeightBase:   22,
	}
}

// SolarisSchedParams approximates the paper's 300 MHz Solaris box: a
// weaker interactivity mechanism (smaller sleep credit, smaller boost)
// makes host slowdown appear earlier, which is consistent with the paper
// measuring a much lower Th2 band (22-57%) on that system.
func SolarisSchedParams() SchedParams {
	p := DefaultSchedParams()
	p.CreditCap = 250 * time.Millisecond
	p.InteractiveBoost = 5
	return p
}

func (p SchedParams) withDefaults() SchedParams {
	d := DefaultSchedParams()
	if p.Tick == 0 {
		p.Tick = d.Tick
	}
	if p.CreditCap == 0 {
		p.CreditCap = d.CreditCap
	}
	if p.InteractiveBoost == 0 {
		p.InteractiveBoost = d.InteractiveBoost
	}
	if p.ThrashFactor == 0 {
		p.ThrashFactor = d.ThrashFactor
	}
	if p.NiceWeightBase == 0 {
		p.NiceWeightBase = d.NiceWeightBase
	}
	return p
}

// Validate reports parameter errors.
func (p SchedParams) Validate() error {
	if p.Tick <= 0 {
		return fmt.Errorf("simos: tick must be positive, got %v", p.Tick)
	}
	if p.CreditCap < 0 {
		return fmt.Errorf("simos: negative credit cap %v", p.CreditCap)
	}
	if p.InteractiveBoost < 1 {
		return fmt.Errorf("simos: interactive boost must be >= 1, got %v", p.InteractiveBoost)
	}
	if p.ThrashFactor <= 0 || p.ThrashFactor > 1 {
		return fmt.Errorf("simos: thrash factor must be in (0,1], got %v", p.ThrashFactor)
	}
	if p.NiceWeightBase <= 19 {
		return fmt.Errorf("simos: nice weight base must exceed 19, got %v", p.NiceWeightBase)
	}
	return nil
}

// MachineConfig describes a simulated machine.
type MachineConfig struct {
	// Name labels the machine in diagnostics.
	Name string
	// RAM is physical memory in bytes.
	RAM int64
	// KernelMem is memory permanently held by the OS (the paper observes
	// about 100 MB of kernel usage on the Solaris box).
	KernelMem int64
	// CPUs is the number of processors (default 1, like the paper's
	// testbed machines). With several CPUs, usage figures are measured in
	// CPUs' worth of time, so a machine-wide usage of 1.0 means one fully
	// busy processor.
	CPUs int
	// Sched are the scheduler parameters; zero fields take defaults.
	Sched SchedParams
	// Seed selects the machine's deterministic lottery stream.
	Seed int64
}

// LinuxLabMachine mimics the paper's testbed machines: 1.7 GHz RedHat
// Linux with more than 1 GB of physical memory (Section 5.1).
func LinuxLabMachine(seed int64) MachineConfig {
	return MachineConfig{
		Name:      "linux-lab",
		RAM:       1536 * MB,
		KernelMem: 100 * MB,
		Seed:      seed,
	}
}

// SolarisMachine mimics the paper's 300 MHz Solaris box with 384 MB of
// physical memory and ~100 MB kernel usage (Section 3.2.3).
func SolarisMachine(seed int64) MachineConfig {
	return MachineConfig{
		Name:      "solaris",
		RAM:       384 * MB,
		KernelMem: 100 * MB,
		Seed:      seed,
	}
}

// WithDefaults returns the configuration with zero fields replaced by
// their defaults, matching what NewMachine applies.
func (c MachineConfig) WithDefaults() MachineConfig {
	if c.RAM == 0 {
		c.RAM = 1536 * MB
	}
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	c.Sched = c.Sched.withDefaults()
	return c
}

// Validate reports configuration errors.
func (c MachineConfig) Validate() error {
	if c.RAM <= 0 {
		return fmt.Errorf("simos: RAM must be positive, got %d", c.RAM)
	}
	if c.KernelMem < 0 || c.KernelMem >= c.RAM {
		return fmt.Errorf("simos: kernel memory %d outside [0, RAM)", c.KernelMem)
	}
	if c.CPUs < 1 {
		return fmt.Errorf("simos: need at least one CPU, got %d", c.CPUs)
	}
	return c.Sched.Validate()
}

// niceWeight maps a nice level to its scheduling weight using the
// arithmetic scale of the classic Unix counter scheduler: with the default
// base of 22, nice 0 -> 22 and nice 19 -> 3. Out-of-range nice values are
// clamped. The default scale is calibrated so the minimum share of a fully
// reniced CPU hog against a nice-0 hog is ~12%, which puts the Th2
// crossing of Figure 1(b) near the paper's 60%.
func niceWeight(base float64, nice int) float64 {
	if nice < 0 {
		nice = 0
	}
	if nice > 19 {
		nice = 19
	}
	return base - float64(nice)
}
