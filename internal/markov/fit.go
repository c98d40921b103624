package markov

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// FitOptions tune Fit. It has no field: Fit fits the pooled fleet model,
// and callers pass FitOptions{}.
type FitOptions struct{}

// fitAccum accumulates sufficient statistics for one MachineModel:
// event-start counts and availability exposure per hour-of-week slot,
// plus the raw duration samples.
type fitAccum struct {
	counts    [sim.HoursPerWeek][NumCauses]int
	exposure  [sim.HoursPerWeek]float64 // available machine-hours
	durations [NumCauses][numDayTypes][]float64
}

// addExposure distributes an availability interval across the hour-of-week
// slots it touches, walking hour boundaries so each slot is credited with
// exactly the time spent inside it.
func (a *fitAccum) addExposure(cal sim.Calendar, iv trace.Interval) {
	t := iv.Start
	for t < iv.End {
		// The start of the next hour after t (strictly later than t).
		next := sim.Time(sim.FloorHour(t)+1) * time.Hour
		if next > iv.End {
			next = iv.End
		}
		a.exposure[cal.HourOfWeek(t)] += (next - t).Hours()
		t = next
	}
}

// addEvents tallies event starts and duration samples.
func (a *fitAccum) addEvents(cal sim.Calendar, evs []trace.Event) {
	for _, e := range evs {
		c := causeIndex(e.State)
		if c < 0 {
			continue
		}
		a.counts[cal.HourOfWeek(e.Start)][c]++
		dt := int(cal.DayType(e.Start))
		a.durations[c][dt] = append(a.durations[c][dt], e.Duration().Hours())
	}
}

// model turns the accumulated statistics into a MachineModel: rate =
// starts / exposure per slot (0 where the slot was never observed
// available), duration ECDFs from the raw samples.
func (a *fitAccum) model() *MachineModel {
	m := &MachineModel{}
	for h := 0; h < sim.HoursPerWeek; h++ {
		for c := 0; c < NumCauses; c++ {
			if a.exposure[h] > 0 {
				m.Rates[h][c] = float64(a.counts[h][c]) / a.exposure[h]
			}
		}
	}
	for c := 0; c < NumCauses; c++ {
		for dt := 0; dt < numDayTypes; dt++ {
			m.Durations[c][dt] = stats.NewECDF(a.durations[c][dt])
		}
	}
	return m
}

// merge folds another accumulator into this one (fleet pooling).
func (a *fitAccum) merge(b *fitAccum) {
	for h := 0; h < sim.HoursPerWeek; h++ {
		a.exposure[h] += b.exposure[h]
		for c := 0; c < NumCauses; c++ {
			a.counts[h][c] += b.counts[h][c]
		}
	}
	for c := 0; c < NumCauses; c++ {
		for dt := 0; dt < numDayTypes; dt++ {
			a.durations[c][dt] = append(a.durations[c][dt], b.durations[c][dt]...)
		}
	}
}

// Fit estimates a semi-Markov model from a recorded trace. Hazards are
// event starts per available machine-hour per hour-of-week slot, with the
// exposure computed from the machine's availability intervals (so time
// spent down never dilutes a slot's rate); durations are the raw event
// lengths split by cause and by the day type of the event's start.
func Fit(tr *trace.Trace, _ FitOptions) (*Model, error) {
	if tr == nil || tr.Machines <= 0 {
		return nil, fmt.Errorf("markov: cannot fit an empty trace")
	}
	if tr.Span.End <= tr.Span.Start {
		return nil, fmt.Errorf("markov: cannot fit a zero-length span %v", tr.Span)
	}
	// Group the events by machine once — a stable sort of a copy, trace order
	// kept within a machine, next to free on the machine-sorted traces the
	// store and the generators hand over — so a machine's fit reads its own
	// events instead of filtering the whole trace twice. The result does not
	// depend on the order events are tallied in: counts are integers, NewECDF
	// sorts its samples, and exposure comes from the coalesced runs.
	byMachine := func(e trace.Event, m trace.MachineID) int { return cmp.Compare(e.Machine, m) }
	grouped := slices.Clone(tr.Events)
	slices.SortStableFunc(grouped, func(a, b trace.Event) int { return byMachine(a, b.Machine) })

	// Built on workers, folded in machine order: every sum adds as serially.
	accs := make([]*fitAccum, tr.Machines)
	par.For(tr.Machines, 0, func(_ *struct{}, id int) error {
		lo, _ := slices.BinarySearchFunc(grouped, trace.MachineID(id), byMachine)
		hi, _ := slices.BinarySearchFunc(grouped, trace.MachineID(id+1), byMachine)
		one := *tr
		one.Events = grouped[lo:hi]
		acc := &fitAccum{}
		for _, iv := range one.Intervals(trace.MachineID(id)) {
			acc.addExposure(tr.Calendar, iv)
		}
		acc.addEvents(tr.Calendar, one.Events)
		accs[id] = acc
		return nil
	})
	fleet := &fitAccum{}
	for _, acc := range accs {
		fleet.merge(acc)
	}
	m := &Model{Calendar: tr.Calendar, Machines: tr.Machines, Fleet: fleet.model()}
	return m, m.Validate()
}
