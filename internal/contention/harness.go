package contention

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simos"
	"repro/internal/workload"
)

// Options configure the contention harness. Zero fields take defaults
// matching the paper's setup (a Linux lab machine, 5% slowdown bound).
type Options struct {
	// Machine is the simulated testbed machine.
	Machine simos.MachineConfig
	// Period is the duty-cycle period of the synthetic host programs.
	Period time.Duration
	// Warmup is discarded simulation time before measurement starts.
	Warmup time.Duration
	// Measure is the measurement window length.
	Measure time.Duration
	// Combos is how many random host-group compositions are averaged per
	// (LH, M) experiment point.
	Combos int
	// Slowdown is the "noticeable slowdown" bound (0.05 in the paper).
	Slowdown float64
	// Seed roots all randomness.
	Seed int64
}

// DefaultOptions returns the paper-equivalent configuration.
func DefaultOptions() Options {
	return Options{
		Machine:  simos.LinuxLabMachine(0).WithDefaults(),
		Period:   workload.DefaultPeriod,
		Warmup:   10 * time.Second,
		Measure:  90 * time.Second,
		Combos:   3,
		Slowdown: 0.05,
		Seed:     1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Machine.RAM == 0 {
		o.Machine = d.Machine
	}
	o.Machine = o.Machine.WithDefaults()
	if o.Period == 0 {
		o.Period = d.Period
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure == 0 {
		o.Measure = d.Measure
	}
	if o.Combos == 0 {
		o.Combos = d.Combos
	}
	if o.Slowdown == 0 {
		o.Slowdown = d.Slowdown
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.Measure <= 0 {
		return fmt.Errorf("contention: measurement window must be positive, got %v", o.Measure)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("contention: negative warmup %v", o.Warmup)
	}
	if o.Combos <= 0 {
		return fmt.Errorf("contention: combos must be positive, got %d", o.Combos)
	}
	if o.Slowdown <= 0 || o.Slowdown >= 1 {
		return fmt.Errorf("contention: slowdown bound must be in (0,1), got %v", o.Slowdown)
	}
	return o.Machine.Validate()
}

// guestSpec describes the guest process in a measurement run.
type guestSpec struct {
	name     string
	nice     int
	rss      int64
	behavior func() simos.Behavior
}

// cpuBoundGuest is the paper's canonical synthetic guest.
func cpuBoundGuest(nice int) *guestSpec {
	return &guestSpec{
		name:     "guest",
		nice:     nice,
		rss:      workload.SyntheticRSS,
		behavior: func() simos.Behavior { return workload.CPUBound{} },
	}
}

// runResult carries the measured usages of one simulation run.
type runResult struct {
	HostUsage  float64
	GuestUsage float64
	Thrashed   bool
}

// spawner adds host processes to a machine.
type spawner func(m *simos.Machine)

// measure runs one simulation: spawn hosts (and optionally a guest), warm
// up, then measure CPU usage over the window.
func (o Options) measure(seed int64, spawnHosts spawner, guest *guestSpec) (runResult, error) {
	cfg := o.Machine
	cfg.Seed = seed
	m, err := simos.NewMachine(cfg)
	if err != nil {
		return runResult{}, err
	}
	spawnHosts(m)
	var gp *simos.Process
	if guest != nil {
		gp = m.Spawn(guest.name, simos.Guest, guest.nice, guest.rss, guest.behavior())
	}
	m.Run(o.Warmup)
	start := m.Snapshot()
	gstart := time.Duration(0)
	if gp != nil {
		gstart = gp.CPUTime()
	}
	m.Run(o.Measure)
	end := m.Snapshot()
	u, err := simos.UsageBetween(start, end)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{HostUsage: u.Host, Thrashed: m.ThrashTime() > 0}
	if gp != nil {
		res.GuestUsage = float64(gp.CPUTime()-gstart) / float64(o.Measure)
	}
	return res, nil
}

// Reduction computes the paper's reduction rate of host CPU usage: the
// relative drop of the host group's usage when a guest runs alongside.
func Reduction(alone, together float64) float64 {
	if alone <= 0 {
		return 0
	}
	r := 1 - together/alone
	if r < 0 {
		r = 0
	}
	return r
}

// aloneKey identifies one "alone" calibration run completely: the machine
// configuration (its Seed is overwritten by the run seed, captured
// separately), the harness timing, and the host group composition. Two
// runs with equal keys are the same deterministic simulation.
type aloneKey struct {
	machine simos.MachineConfig
	period  time.Duration
	warmup  time.Duration
	measure time.Duration
	seed    int64
	usages  string
}

// aloneCache memoizes alone-run calibrations across figures and repeated
// threshold searches. Entries are runResult values; the simulations they
// replace are self-contained (each builds a fresh machine from the seed),
// so serving a cached result never perturbs any other random stream. The
// experiment grids keep the key space small (hundreds of entries), so the
// cache is unbounded.
var aloneCache sync.Map // aloneKey -> runResult

func (o Options) aloneKeyFor(seed int64, group workload.HostGroup) aloneKey {
	k := aloneKey{
		machine: o.Machine,
		period:  o.Period,
		warmup:  o.Warmup,
		measure: o.Measure,
		seed:    seed,
		usages:  encodeUsages(group.Usages),
	}
	k.machine.Seed = 0
	return k
}

// encodeUsages packs the group's usages into a string key, bit-exactly.
func encodeUsages(us []float64) string {
	buf := make([]byte, len(us)*8)
	for i, u := range us {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(u))
	}
	return string(buf)
}

// measureAlone is measure without a guest, served from the calibration
// cache when the identical run was already simulated.
func (o Options) measureAlone(seed int64, group workload.HostGroup, spawn spawner) (runResult, error) {
	key := o.aloneKeyFor(seed, group)
	if v, ok := aloneCache.Load(key); ok {
		return v.(runResult), nil
	}
	res, err := o.measure(seed, spawn, nil)
	if err != nil {
		return runResult{}, err
	}
	aloneCache.Store(key, res)
	return res, nil
}

// MeasureGroupReduction runs one full experiment point: calibrate the host
// group alone (memoized), then run it with the guest, and return (measured
// LH, reduction rate).
func (o Options) MeasureGroupReduction(seed int64, group workload.HostGroup, guestNice int) (lh, reduction float64, err error) {
	spawn := func(m *simos.Machine) { group.Spawn(m, o.Period) }
	alone, err := o.measureAlone(seed, group, spawn)
	if err != nil {
		return 0, 0, err
	}
	with, err := o.measure(seed, spawn, cpuBoundGuest(guestNice))
	if err != nil {
		return 0, 0, err
	}
	return alone.HostUsage, Reduction(alone.HostUsage, with.HostUsage), nil
}

// comboSeed derives a per-run seed from the experiment coordinates so runs
// are independent and reproducible. The stream name is assembled without
// fmt so the per-point seeding stays off the allocator's hot path; the
// bytes match the historical "combo/%d/..." format exactly.
func comboSeed(base int64, tags ...int) int64 {
	buf := make([]byte, 0, 48)
	buf = append(buf, "combo"...)
	for _, t := range tags {
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(t), 10)
	}
	return int64(sim.NewSource(base).StreamBytes(buf).Uint64())
}
