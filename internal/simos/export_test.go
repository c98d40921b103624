package simos

import "time"

// DisableFastPath forces per-tick stepping, turning the machine into the
// naive oracle the equivalence tests compare against.
func (m *Machine) DisableFastPath() { m.noFastPath = true }

// CheckAggregates recomputes the incremental aggregates from scratch and
// reports the first inconsistency, if any.
func (m *Machine) CheckAggregates() string {
	var stateCount [4]int
	var resident [2]int64
	for _, p := range m.procs {
		stateCount[p.state]++
		if p.state != Dead {
			resident[p.class] += p.rss
		}
	}
	if stateCount != m.stateCount {
		return "stateCount mismatch"
	}
	if resident != m.resident {
		return "resident mismatch"
	}
	return ""
}

// CPUTime returns the accumulated CPU time accounted to the class.
func (m *Machine) CPUTime(class Class) time.Duration { return m.cpuByClass[class] }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the lifecycle state.
func (p *Process) State() ProcState { return p.state }
