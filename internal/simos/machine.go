package simos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Machine simulates one single-CPU time-sharing machine. It is not safe
// for concurrent use; simulate many machines by running one per goroutine.
//
// The simulation core is event-driven on its hot paths: aggregate resident
// memory and per-state process counts are maintained incrementally on every
// lifecycle change (spawn, phase change, suspend, kill), so Thrashing,
// ResidentMem and FreeMemForGuest are O(1) instead of O(procs), and Run
// batches whole runs of ticks in closed form whenever the runnable set is
// provably stable (see fastForward). The batched path consumes exactly the
// same random draws as per-tick stepping, so fixed-seed results are
// bit-identical either way; the equivalence tests enforce this.
type Machine struct {
	cfg   MachineConfig
	rng   *rand.Rand
	now   sim.Time
	procs []*Process

	// Aggregate CPU-time accounting by class, for O(1) monitor sampling.
	cpuByClass [2]time.Duration
	idleTime   time.Duration
	thrashTime time.Duration

	// Incrementally maintained aggregates; see noteSpawn and
	// Process.setState.
	stateCount [4]int   // live processes per ProcState (index ProcState)
	resident   [2]int64 // resident memory of live processes per Class

	// runnable caches the runnable processes in spawn order (the order the
	// lottery iterates); it is rebuilt lazily when runnableDirty is set.
	runnable      []*Process
	runnableDirty bool
	// weights is scratch for drawRunnable, reused across ticks so the
	// scheduler hot path stays allocation-free.
	weights []float64

	// noFastPath forces per-tick stepping; used by the equivalence tests to
	// compare the batched fast path against the naive oracle.
	noFastPath bool
}

// NewMachine builds a machine from the configuration (zero fields take
// defaults).
func NewMachine(cfg MachineConfig) (*Machine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := sim.NewSource(cfg.Seed)
	return &Machine{
		cfg: cfg,
		rng: src.Stream("machine/" + cfg.Name),
	}, nil
}

// MustNewMachine is NewMachine for known-good configurations.
func MustNewMachine(cfg MachineConfig) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the effective configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// Now returns the machine's virtual time.
func (m *Machine) Now() sim.Time { return m.now }

// Spawn creates a process and schedules its first phase immediately.
func (m *Machine) Spawn(name string, class Class, nice int, rss int64, b Behavior) *Process {
	p := &Process{
		m:        m,
		name:     name,
		class:    class,
		nice:     nice,
		rss:      rss,
		behavior: b,
		started:  m.now,
		lastRun:  -1,
	}
	// Register the process under its zero-value state (Runnable) before the
	// first phase pull; advancePhase then transitions it through setState,
	// which keeps the aggregates consistent.
	m.stateCount[Runnable]++
	m.resident[class] += rss
	m.runnableDirty = true
	p.advancePhase(m.rng)
	m.procs = append(m.procs, p)
	return p
}

// Processes returns the processes the machine tracks, in spawn order: the
// live ones plus those that died since the last Run began (Run drops the
// dead on entry). So the list, and the scans over it on every tick with a
// sleeper, grow with the live processes and one Run's deaths, not with
// every process the machine ever spawned. The slice is the machine's own
// and changes at the next Spawn or Run.
func (m *Machine) Processes() []*Process { return m.procs }

// dropDead removes dead processes from the list, keeping the live ones in
// spawn order. Dead processes never draw from the RNG, so the random
// stream is unchanged.
func (m *Machine) dropDead() {
	live := m.procs[:0]
	for _, p := range m.procs {
		if p.state != Dead {
			live = append(live, p)
		}
	}
	clear(m.procs[len(live):])
	m.procs = live
	m.stateCount[Dead] = 0
}

// LiveCount returns the number of live processes in O(1).
func (m *Machine) LiveCount() int {
	return m.stateCount[Runnable] + m.stateCount[Sleeping] + m.stateCount[Suspended]
}

// ResidentMem returns the memory held by live processes of the class.
func (m *Machine) ResidentMem(class Class) int64 {
	return m.resident[class]
}

// FreeMemForGuest returns the memory a guest could claim: physical memory
// minus kernel usage and the resident sets of host processes. This is what
// the paper's non-intrusive monitor can observe (it cannot see inside the
// guest).
func (m *Machine) FreeMemForGuest() int64 {
	free := m.cfg.RAM - m.cfg.KernelMem - m.resident[Host]
	if free < 0 {
		free = 0
	}
	return free
}

// Thrashing reports whether the total working set of live processes
// (plus the kernel) exceeds physical memory.
func (m *Machine) Thrashing() bool {
	return m.resident[Host]+m.resident[Guest]+m.cfg.KernelMem > m.cfg.RAM
}

// CPUTime returns the accumulated CPU time accounted to the class.
func (m *Machine) CPUTime(class Class) time.Duration {
	return m.cpuByClass[class]
}

// IdleTime returns the accumulated idle CPU time.
func (m *Machine) IdleTime() time.Duration { return m.idleTime }

// ThrashTime returns how long the machine has spent thrashing.
func (m *Machine) ThrashTime() time.Duration { return m.thrashTime }

// Run advances the simulation by d (rounded down to whole ticks). Spans of
// ticks over which the schedule is predetermined — no runnable process, or
// a single runnable process with no sleeper due to wake — are advanced in
// closed form by fastForward; the remaining ticks step individually.
func (m *Machine) Run(d time.Duration) {
	if m.stateCount[Dead] > 0 {
		m.dropDead()
	}
	tick := m.cfg.Sched.Tick
	steps := int64(d / tick)
	for steps > 0 {
		if !m.noFastPath {
			if k := m.fastForward(steps, tick); k > 0 {
				steps -= k
				continue
			}
			if m.cfg.CPUs == 1 && m.stateCount[Runnable] > 1 {
				if k := m.runBatch(steps, tick); k > 0 {
					steps -= k
					continue
				}
			}
		}
		m.step(tick)
		steps--
	}
}

// RunUntil advances the simulation to the absolute virtual time t.
func (m *Machine) RunUntil(t sim.Time) {
	if t > m.now {
		m.Run(t - m.now)
	}
}

// fastForward advances up to steps ticks in closed form and returns how
// many it advanced (0 means the next tick must be stepped naively). It is
// applicable while no scheduling decision is ambiguous: at most one process
// is runnable, and the batch ends strictly before the next discrete event
// (a sleeper waking or the runnable process exhausting its burst), whose
// tick runs through step so phase advancement draws from the RNG at exactly
// the same point as per-tick stepping. The lottery draw the naive path
// performs on every busy tick is drained explicitly, keeping the random
// stream bit-identical.
func (m *Machine) fastForward(steps int64, tick time.Duration) int64 {
	if m.stateCount[Runnable] > 1 {
		return 0
	}
	k := steps
	if m.stateCount[Sleeping] > 0 {
		for _, p := range m.procs {
			if p.state != Sleeping {
				continue
			}
			// The tick on which sleepLeft reaches zero runs advancePhase and
			// must be stepped naively.
			e := int64((p.sleepLeft + tick - 1) / tick)
			if e-1 < k {
				k = e - 1
			}
		}
	}
	thrash := m.Thrashing()
	var run *Process
	var progress, accounted time.Duration
	if m.stateCount[Runnable] == 1 {
		if m.runnableDirty {
			m.refreshRunnable()
		}
		run = m.runnable[0]
		progress, accounted = tick, tick
		if thrash {
			progress = time.Duration(float64(tick) * m.cfg.Sched.ThrashFactor)
			accounted = progress
			if progress <= 0 {
				return 0
			}
		}
		e := int64((run.burstLeft + progress - 1) / progress)
		if e-1 < k {
			k = e - 1
		}
	}
	if k <= 0 {
		return 0
	}
	d := time.Duration(k) * tick
	if m.stateCount[Sleeping] > 0 {
		cap := m.cfg.Sched.CreditCap
		for _, p := range m.procs {
			if p.state != Sleeping {
				continue
			}
			p.sleepLeft -= d
			p.credit += d
			if p.credit > cap {
				p.credit = cap
			}
		}
	}
	busy := 0
	if run != nil {
		// Drain the per-tick lottery draws the naive path would consume.
		for i := int64(0); i < k; i++ {
			m.rng.Float64()
		}
		run.burstLeft -= time.Duration(k) * progress
		acc := time.Duration(k) * accounted
		run.cpuTime += acc
		m.cpuByClass[run.class] += acc
		run.credit -= d
		if run.credit < 0 {
			run.credit = 0
		}
		run.lastRun = m.now + time.Duration(k-1)*tick
		busy = 1
	}
	m.idleTime += time.Duration(m.cfg.CPUs-busy) * d
	if thrash {
		m.thrashTime += d
	}
	m.now += d
	return k
}

// runBatch advances up to steps ticks of the contended single-CPU regime —
// several runnable processes competing in the per-tick lottery — in a tight
// loop that avoids step's per-tick scans. It returns how many ticks it
// advanced (0 means the next tick must be stepped naively).
//
// Parity with step is exact: one Float64 draw per tick with the winner
// chosen by the same cumulative-subtraction walk; lottery weights are the
// values step would recompute each tick (they only change when a winner's
// interactivity credit drains to zero, at which point the total is re-summed
// in index order, matching step's fresh per-tick sum bit for bit); and the
// batch ends strictly before any discrete event — a sleeper waking or the
// winner exhausting its burst — runs its phase change at the same point in
// the random stream as per-tick stepping would.
func (m *Machine) runBatch(steps int64, tick time.Duration) int64 {
	// Bound the batch to end before the first sleeper wakes (that tick's
	// advancePhase must run through step).
	if m.stateCount[Sleeping] > 0 {
		for _, p := range m.procs {
			if p.state != Sleeping {
				continue
			}
			e := int64((p.sleepLeft+tick-1)/tick) - 1
			if e < steps {
				steps = e
			}
		}
		if steps <= 0 {
			return 0
		}
	}
	params := m.cfg.Sched
	thrash := m.Thrashing()
	progress := tick
	if thrash {
		progress = time.Duration(float64(tick) * params.ThrashFactor)
		if progress <= 0 {
			return 0
		}
	}
	if m.runnableDirty {
		m.refreshRunnable()
	}
	runnable := m.runnable
	n := len(runnable)
	if cap(m.weights) < n {
		m.weights = make([]float64, n)
	}
	weights := m.weights[:n]
	var total float64
	for i, p := range runnable {
		w := p.effectiveWeight(params)
		weights[i] = w
		total += w
	}
	if total == 0 {
		return 0
	}
	rng := m.rng
	now := m.now // start of the current tick; advanced at each tick's end
	var done int64
	var exhausted *Process
	for done < steps {
		d := rng.Float64() * total
		// Cumulative subtraction, falling back to the last entry exactly
		// like step's floating-point tail (weights here are all positive).
		win := n - 1
		for i := 0; i < n-1; i++ {
			d -= weights[i]
			if d < 0 {
				win = i
				break
			}
		}
		p := runnable[win]
		p.lastRun = now
		p.burstLeft -= progress
		p.cpuTime += progress
		m.cpuByClass[p.class] += progress
		done++
		if p.credit > 0 {
			p.credit -= tick
			if p.credit < 0 {
				p.credit = 0
			}
			if p.credit == 0 {
				weights[win] = p.effectiveWeight(params)
				total = 0
				for _, w := range weights {
					total += w
				}
			}
		}
		if p.burstLeft <= 0 {
			exhausted = p
			break
		}
		now += tick
	}
	d := time.Duration(done) * tick
	if thrash {
		m.thrashTime += d
	}
	if m.stateCount[Sleeping] > 0 {
		for _, p := range m.procs {
			if p.state != Sleeping {
				continue
			}
			p.sleepLeft -= d
			p.credit += d
			if p.credit > params.CreditCap {
				p.credit = params.CreditCap
			}
		}
	}
	if exhausted != nil {
		// The phase change runs with now at the start of its tick, exactly
		// where step would invoke it (step advances now only at tick end).
		m.now = now
		if exhausted.sleepLeft > 0 {
			exhausted.setState(Sleeping)
		} else {
			exhausted.advancePhase(m.rng)
		}
		m.now = now + tick
		return done
	}
	m.now = now
	return done
}

// step advances one tick: sleep/credit bookkeeping, then one lottery draw
// per CPU among the remaining runnable processes, and progress for each
// winner.
func (m *Machine) step(tick time.Duration) {
	params := m.cfg.Sched
	thrash := m.Thrashing()

	// Phase bookkeeping for sleepers.
	if m.stateCount[Sleeping] > 0 {
		for _, p := range m.procs {
			if p.state != Sleeping {
				continue
			}
			p.sleepLeft -= tick
			p.credit += tick
			if p.credit > params.CreditCap {
				p.credit = params.CreditCap
			}
			if p.sleepLeft <= 0 {
				p.advancePhase(m.rng)
			}
		}
	}

	if thrash {
		m.thrashTime += tick
	}
	ran := 0
	for cpu := 0; cpu < m.cfg.CPUs; cpu++ {
		chosen := m.drawRunnable(params)
		if chosen == nil {
			break
		}
		ran++
		m.runProcess(chosen, tick, thrash, params)
	}
	m.idleTime += time.Duration(m.cfg.CPUs-ran) * tick
	m.now += tick
}

// refreshRunnable rebuilds the cached runnable set in spawn order.
func (m *Machine) refreshRunnable() {
	m.runnable = m.runnable[:0]
	for _, p := range m.procs {
		if p.state == Runnable {
			m.runnable = append(m.runnable, p)
		}
	}
	m.runnableDirty = false
}

// drawRunnable performs one weighted lottery draw among runnable processes
// not yet scheduled this tick (marked via lastRun). It iterates the cached
// runnable set — in spawn order, like a full scan — and records each
// weight so the selection pass does not recompute them. Ineligible
// processes contribute an exact 0.0 to the total, which leaves the
// floating-point sum bit-identical to the naive skip-them scan.
func (m *Machine) drawRunnable(params SchedParams) *Process {
	if m.runnableDirty {
		m.refreshRunnable()
	}
	if cap(m.weights) < len(m.runnable) {
		m.weights = make([]float64, len(m.runnable))
	}
	weights := m.weights[:len(m.runnable)]
	var total float64
	for i, p := range m.runnable {
		w := 0.0
		if p.lastRun != m.now {
			w = p.effectiveWeight(params)
		}
		weights[i] = w
		total += w
	}
	if total == 0 {
		return nil
	}
	draw := m.rng.Float64() * total
	for i, p := range m.runnable {
		w := weights[i]
		if w == 0 {
			continue
		}
		draw -= w
		if draw < 0 {
			return p
		}
	}
	// Floating-point tail: take the last eligible runnable.
	for i := len(m.runnable) - 1; i >= 0; i-- {
		if weights[i] != 0 {
			return m.runnable[i]
		}
	}
	return nil
}

// runProcess advances one winner by one tick. A thrashing machine spends
// most of the tick stalled on page faults; only ThrashFactor of it becomes
// work and CPU time.
func (m *Machine) runProcess(chosen *Process, tick time.Duration, thrash bool, params SchedParams) {
	progress := tick
	accounted := tick
	if thrash {
		progress = time.Duration(float64(tick) * params.ThrashFactor)
		accounted = progress
	}
	chosen.lastRun = m.now
	chosen.burstLeft -= progress
	chosen.cpuTime += accounted
	m.cpuByClass[chosen.class] += accounted
	chosen.credit -= tick
	if chosen.credit < 0 {
		chosen.credit = 0
	}
	if chosen.burstLeft <= 0 {
		if chosen.sleepLeft > 0 {
			chosen.setState(Sleeping)
		} else {
			chosen.advancePhase(m.rng)
		}
	}
}

// Usage measures CPU usage between two snapshots; see Snapshot.
type Usage struct {
	Host  float64
	Guest float64
	Idle  float64
}

// Snapshot captures the accounting counters at an instant.
type Snapshot struct {
	At    sim.Time
	Host  time.Duration
	Guest time.Duration
	Idle  time.Duration
}

// Snapshot returns the current accounting counters.
func (m *Machine) Snapshot() Snapshot {
	return Snapshot{
		At:    m.now,
		Host:  m.cpuByClass[Host],
		Guest: m.cpuByClass[Guest],
		Idle:  m.idleTime,
	}
}

// UsageBetween computes per-class CPU usage over the window between two
// snapshots. It returns an error if the window is empty or inverted.
func UsageBetween(a, b Snapshot) (Usage, error) {
	wall := b.At - a.At
	if wall <= 0 {
		return Usage{}, fmt.Errorf("simos: empty snapshot window [%v, %v]", a.At, b.At)
	}
	return Usage{
		Host:  float64(b.Host-a.Host) / float64(wall),
		Guest: float64(b.Guest-a.Guest) / float64(wall),
		Idle:  float64(b.Idle-a.Idle) / float64(wall),
	}, nil
}
