package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

// MachineID identifies one monitored machine within a testbed.
type MachineID int

// Event is one occurrence of resource unavailability: the machine left the
// available states (S1/S2) at Start and returned to them at End.
type Event struct {
	Machine MachineID
	// Start and End delimit the unavailability, [Start, End).
	Start sim.Time
	End   sim.Time
	// State is the failure state: S3, S4 or S5.
	State availability.State
	// AvailCPU is the CPU fraction that was available for guests just
	// before the failure (1 - LH).
	AvailCPU float64
	// AvailMem is the free memory (bytes) just before the failure.
	AvailMem int64
}

// Duration returns the length of the unavailability.
func (e Event) Duration() time.Duration { return e.End - e.Start }

// Cause returns the Table 2 category of the event.
func (e Event) Cause() availability.Cause { return availability.CauseOf(e.State) }

// valid is Validate's verdict without its error: the one statement of what
// a well-formed event is, cheap enough to run over a block through a pointer.
func (e *Event) valid() bool { return e.State.Unavailable() && e.End >= e.Start }

// Validate reports structural problems with the event.
func (e Event) Validate() error {
	if e.valid() {
		return nil
	}
	if !e.State.Unavailable() {
		return fmt.Errorf("trace: event state %v is not a failure state", e.State)
	}
	return fmt.Errorf("trace: event ends (%v) before it starts (%v)", e.End, e.Start)
}

// Interval is a period of availability on one machine: time during which a
// guest could run (possibly reniced or briefly suspended) without failing.
type Interval struct {
	Machine MachineID
	Start   sim.Time
	End     sim.Time
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Trace is a collection of unavailability events over an observation
// window, for one or many machines.
type Trace struct {
	// Span is the observed window; intervals at the edges are clipped to it.
	Span sim.Window
	// Calendar anchors virtual times to weekdays/weekends.
	Calendar sim.Calendar
	// Machines is the number of monitored machines (IDs 0..Machines-1).
	Machines int
	// Events holds all unavailability occurrences, in no particular order
	// until Sort is called.
	Events []Event
}

// New creates an empty trace covering span for n machines.
func New(span sim.Window, cal sim.Calendar, n int) *Trace {
	return &Trace{Span: span, Calendar: cal, Machines: n}
}

// Add appends an event.
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// Sort orders events by (machine, start, end).
func (t *Trace) Sort() {
	sort.Slice(t.Events, func(i, j int) bool {
		if t.Events[i].Machine != t.Events[j].Machine {
			return t.Events[i].Machine < t.Events[j].Machine
		}
		if t.Events[i].Start != t.Events[j].Start {
			return t.Events[i].Start < t.Events[j].Start
		}
		return t.Events[i].End < t.Events[j].End
	})
}

// Validate checks every event and the span.
func (t *Trace) Validate() error {
	if t.Span.End < t.Span.Start {
		return fmt.Errorf("trace: inverted span %v", t.Span)
	}
	if t.Machines < 0 {
		return fmt.Errorf("trace: negative machine count %d", t.Machines)
	}
	for i, e := range t.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if t.Machines > 0 && (e.Machine < 0 || int(e.Machine) >= t.Machines) {
			return fmt.Errorf("event %d: machine %d outside 0..%d", i, e.Machine, t.Machines-1)
		}
	}
	return nil
}

// MachineEvents returns the events of one machine sorted by start time.
func (t *Trace) MachineEvents(m MachineID) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Machine == m {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Intervals extracts the availability intervals of machine m: the gaps
// between consecutive unavailability events, clipped to the trace span.
// Overlapping or touching events are coalesced first, so intervals are
// always strictly positive in length.
func (t *Trace) Intervals(m MachineID) []Interval {
	evs := t.MachineEvents(m)
	merged := coalesce(evs)
	var out []Interval
	cursor := t.Span.Start
	for _, e := range merged {
		s, en := e.Start, e.End
		if en <= t.Span.Start || s >= t.Span.End {
			continue
		}
		if s < t.Span.Start {
			s = t.Span.Start
		}
		if en > t.Span.End {
			en = t.Span.End
		}
		if s > cursor {
			out = append(out, Interval{Machine: m, Start: cursor, End: s})
		}
		if en > cursor {
			cursor = en
		}
	}
	if cursor < t.Span.End {
		out = append(out, Interval{Machine: m, Start: cursor, End: t.Span.End})
	}
	return out
}

// coalesce merges overlapping/touching events (already sorted by start).
func coalesce(evs []Event) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := []Event{evs[0]}
	for _, e := range evs[1:] {
		last := &out[len(out)-1]
		if e.Start <= last.End {
			if e.End > last.End {
				last.End = e.End
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// MachineDays returns the total machine-days covered by the trace (the
// paper reports "roughly 1800 machine-days").
func (t *Trace) MachineDays() float64 {
	return float64(t.Machines) * float64(t.Span.Duration()) / float64(sim.Day)
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := *t
	c.Events = make([]Event, len(t.Events))
	copy(c.Events, t.Events)
	return &c
}

// Filter returns a trace containing only events for which keep returns
// true; span, calendar and machine count are preserved.
func (t *Trace) Filter(keep func(Event) bool) *Trace {
	c := *t
	c.Events = nil
	for _, e := range t.Events {
		if keep(e) {
			c.Events = append(c.Events, e)
		}
	}
	return &c
}

// Before returns a trace containing only events that start before cut;
// the span is clipped accordingly. Used to build predictor training sets.
func (t *Trace) Before(cut sim.Time) *Trace {
	c := t.Filter(func(e Event) bool { return e.Start < cut })
	if c.Span.End > cut {
		c.Span.End = cut
	}
	return c
}
