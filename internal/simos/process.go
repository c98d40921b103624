package simos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Class distinguishes the origin of a process, mirroring the paper's
// terminology: everything not launched through the FGCS system is a host
// process (including system daemons such as updatedb).
type Class int

const (
	// Host processes belong to local users or the system itself.
	Host Class = iota
	// Guest processes were submitted through the FGCS system.
	Guest
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Host:
		return "host"
	case Guest:
		return "guest"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ProcState is a process's lifecycle state.
type ProcState int

const (
	// Runnable means the process has CPU work pending.
	Runnable ProcState = iota
	// Sleeping means the process is waiting (timer, I/O, user think time).
	Sleeping
	// Suspended means the process was stopped (SIGSTOP) by the guest
	// controller; it holds memory but never runs.
	Suspended
	// Dead means the process exited or was killed.
	Dead
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Sleeping:
		return "sleeping"
	case Suspended:
		return "suspended"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Behavior supplies a process's compute/sleep phases. Implementations live
// in internal/workload; the simulator only pulls the next phase when the
// previous one completes.
type Behavior interface {
	// NextPhase returns the CPU work and subsequent sleep of the next
	// cycle. Returning ok=false terminates the process.
	NextPhase(r *rand.Rand) (compute, sleep time.Duration, ok bool)
}

// Process is one simulated process on a Machine. Control methods (Renice,
// Suspend, Resume, Kill) implement availability.Guest so the controller can
// manage a guest process directly.
type Process struct {
	m        *Machine
	name     string
	class    Class
	nice     int
	rss      int64
	behavior Behavior

	state     ProcState
	burstLeft time.Duration // CPU work remaining in the current burst
	sleepLeft time.Duration
	credit    time.Duration

	// resumeState remembers whether the process was mid-burst or mid-sleep
	// when suspended.
	resumeRunnable bool

	cpuTime time.Duration // accounted CPU time (getrusage equivalent)
	started sim.Time
	ended   sim.Time
	// lastRun marks the tick this process last ran, so a multi-CPU
	// machine never schedules one process on two CPUs at once. Spawn
	// initializes it to a sentinel in the past.
	lastRun sim.Time
}

// setState is the single mutation point for a process's lifecycle state.
// It keeps the machine's incremental aggregates — per-state counts, the
// per-class resident-set totals, and the cached runnable set — consistent,
// which is what makes Thrashing/ResidentMem/LiveCount O(1).
func (p *Process) setState(next ProcState) {
	if p.state == next {
		return
	}
	m := p.m
	m.stateCount[p.state]--
	m.stateCount[next]++
	if p.state == Runnable || next == Runnable {
		m.runnableDirty = true
	}
	if next == Dead {
		m.resident[p.class] -= p.rss
	}
	p.state = next
}

// Nice returns the current nice level.
func (p *Process) Nice() int { return p.nice }

// CPUTime returns the total accounted CPU time.
func (p *Process) CPUTime() time.Duration { return p.cpuTime }

// Alive reports whether the process has not terminated.
func (p *Process) Alive() bool { return p.state != Dead }

// Renice sets the nice level (clamped to [0, 19] by the scheduler weight).
func (p *Process) Renice(nice int) { p.nice = nice }

// Suspend stops the process; it keeps its memory but receives no CPU.
func (p *Process) Suspend() {
	if p.state == Dead || p.state == Suspended {
		return
	}
	p.resumeRunnable = p.state == Runnable
	p.setState(Suspended)
}

// Resume continues a suspended process.
func (p *Process) Resume() {
	if p.state != Suspended {
		return
	}
	if p.resumeRunnable {
		p.setState(Runnable)
	} else {
		p.setState(Sleeping)
	}
}

// Kill terminates the process immediately, releasing its memory.
func (p *Process) Kill() {
	if p.state == Dead {
		return
	}
	p.setState(Dead)
	p.ended = p.m.Now()
}

// Usage returns the process's CPU usage over its lifetime so far: accounted
// CPU time divided by wall time since it started.
func (p *Process) Usage() float64 {
	end := p.m.Now()
	if p.state == Dead {
		end = p.ended
	}
	wall := end - p.started
	if wall <= 0 {
		return 0
	}
	return float64(p.cpuTime) / float64(wall)
}

// advancePhase pulls phases from the behavior until the process has work,
// sleep, or terminates. Zero-length phases are skipped (bounded to avoid a
// pathological behavior spinning forever).
func (p *Process) advancePhase(r *rand.Rand) {
	for i := 0; i < 16; i++ {
		compute, sleep, ok := p.behavior.NextPhase(r)
		if !ok {
			p.setState(Dead)
			p.ended = p.m.Now()
			return
		}
		if compute > 0 {
			p.burstLeft = compute
			p.sleepLeft = sleep
			p.setState(Runnable)
			return
		}
		if sleep > 0 {
			p.burstLeft = 0
			p.sleepLeft = sleep
			p.setState(Sleeping)
			return
		}
	}
	// A behavior that returns 16 consecutive empty phases is broken;
	// treat it as terminated rather than spinning.
	p.setState(Dead)
	p.ended = p.m.Now()
}

// effectiveWeight is the lottery weight for the next draw.
func (p *Process) effectiveWeight(params SchedParams) float64 {
	w := niceWeight(params.NiceWeightBase, p.nice)
	if p.credit > 0 {
		w *= params.InteractiveBoost
	}
	return w
}
