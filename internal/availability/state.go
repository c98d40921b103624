package availability

import "fmt"

// State is one of the five availability states of the multi-state model.
type State int

const (
	// S1 is full resource availability for a guest process.
	S1 State = iota + 1
	// S2 is resource availability for a guest process at lowest priority.
	S2
	// S3 is CPU unavailability: unrecoverable UEC due to CPU contention.
	S3
	// S4 is memory thrashing: unrecoverable UEC due to memory contention.
	S4
	// S5 is machine unavailability (URR): revocation or hardware/software
	// failure, observed as termination of the FGCS service.
	S5
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case S1:
		return "S1(full)"
	case S2:
		return "S2(lowest-priority)"
	case S3:
		return "S3(cpu-unavail)"
	case S4:
		return "S4(mem-thrash)"
	case S5:
		return "S5(machine-unavail)"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Short returns the bare state name ("S1".."S5") — the form used in
// metric labels, where the String() parenthetical would be noise.
func (s State) Short() string {
	if s.Valid() {
		return [...]string{"S1", "S2", "S3", "S4", "S5"}[s-S1]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Available reports whether a guest may occupy the resource (S1 or S2).
func (s State) Available() bool { return s == S1 || s == S2 }

// Unavailable reports whether the state is one of the three failure states.
func (s State) Unavailable() bool { return s == S3 || s == S4 || s == S5 }

// Valid reports whether s is one of the five defined states.
func (s State) Valid() bool { return s >= S1 && s <= S5 }

// Cause labels the root cause of an unavailability state, matching the
// categories of the paper's Table 2.
type Cause int

const (
	// CauseNone marks available states.
	CauseNone Cause = iota
	// CauseCPU is UEC from CPU contention (S3).
	CauseCPU
	// CauseMemory is UEC from memory contention (S4).
	CauseMemory
	// CauseRevocation is URR (S5).
	CauseRevocation
)

// String returns the Table 2 column name for the cause.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCPU:
		return "cpu-contention"
	case CauseMemory:
		return "memory-contention"
	case CauseRevocation:
		return "revocation"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// CauseOf maps a failure state to its cause (CauseNone for S1/S2).
func CauseOf(s State) Cause {
	switch s {
	case S3:
		return CauseCPU
	case S4:
		return CauseMemory
	case S5:
		return CauseRevocation
	default:
		return CauseNone
	}
}
