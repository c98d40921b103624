package trace

import (
	"repro/internal/availability"
	"repro/internal/sim"
)

// Builder turns a stream of availability transitions for one machine into
// closed unavailability events: it opens an event when the machine leaves
// the available states and closes it when availability returns. This is
// exactly the record the paper's monitor keeps ("the start and end time of
// each occurrence of resource unavailability, the corresponding failure
// state, and the available CPU and memory for guest jobs").
type Builder struct {
	machine MachineID
	open    *Event
}

// NewBuilder creates a builder for one machine's event stream.
func NewBuilder(m MachineID) *Builder { return &Builder{machine: m} }

// OnTransition consumes one detector transition. It returns a completed
// event when the transition closes one (the machine became available again,
// or switched directly between failure states), and nil otherwise.
//
// A direct failure-to-failure switch (e.g. S3 while overloaded, then the
// machine is rebooted into S5) closes the first event at the switch time
// and opens a second one, so no unavailability time is lost or
// double-counted.
func (b *Builder) OnTransition(tr availability.Transition) *Event {
	var closed *Event
	if b.open != nil && (tr.To.Available() || tr.To.Unavailable()) && tr.From.Unavailable() {
		ev := *b.open
		ev.End = tr.At
		if ev.End < ev.Start {
			ev.End = ev.Start
		}
		b.open = nil
		closed = &ev
	}
	if tr.To.Unavailable() {
		b.open = &Event{
			Machine:  b.machine,
			Start:    tr.At,
			State:    tr.To,
			AvailCPU: clamp01(1 - tr.LH),
			AvailMem: tr.FreeMem,
		}
	}
	return closed
}

// Flush closes any open event at the given end time (the end of the
// observation span) and returns it, or nil if nothing was open.
func (b *Builder) Flush(end sim.Time) *Event {
	if b.open == nil {
		return nil
	}
	ev := *b.open
	ev.End = end
	if ev.End < ev.Start {
		ev.End = ev.Start
	}
	b.open = nil
	return &ev
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
