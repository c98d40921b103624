package trace

import (
	"fmt"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/stats"
)

// StreamAnalyzer computes the paper's trace analyses — Table 2 cause
// counts, the Figure 6 interval-length samples and the Figure 7 hourly
// occurrence bins — in a single pass over an event stream sorted by
// (machine, start, end), without materializing a *Trace. It is the one
// implementation of those analyses: the Trace methods (MakeTable2,
// IntervalECDF/IntervalLengths, HourlyOccurrences) feed their events
// through it, the parallel block scan merges partial instances of it, and
// the naive reference bodies it is held to live in internal/check.
//
// Memory use is O(machines + days + intervals): per-machine cause counts,
// one grouped-bin cell per (day, hour) with events, and the interval-length
// samples Figure 6 is drawn from.
type StreamAnalyzer struct {
	span     sim.Window
	cal      sim.Calendar
	machines int

	// lo and hi bound the machine range [lo, hi) this analyzer is
	// responsible for. A full analyzer covers [0, machines); partial
	// analyzers built by NewStreamAnalyzerRange cover a sub-range and are
	// combined with MergeFrom. counts[i] belongs to machine lo+i.
	lo, hi MachineID

	counts     []CauseCounts
	urrTotal   int
	urrReboots int
	events     int

	// Figure 7 bins and Figure 6 samples, indexed by sim.DayType.
	hourly [2]*stats.GroupedBins
	ivLens [2][]float64

	// Streaming interval extraction state for the machine currently being
	// consumed: the availability cursor and the open coalesce run.
	cur        MachineID
	started    bool
	cursor     sim.Time
	runStart   sim.Time
	runEnd     sim.Time
	runOpen    bool
	lastStart  sim.Time
	finished   bool
	rebootsCut time.Duration
}

// NewStreamAnalyzer creates an analyzer for a stream covering span with the
// given calendar and machine count (IDs 0..machines-1).
func NewStreamAnalyzer(span sim.Window, cal sim.Calendar, machines int) *StreamAnalyzer {
	return NewStreamAnalyzerRange(span, cal, machines, 0, MachineID(machines))
}

// NewStreamAnalyzerRange creates a partial analyzer responsible for the
// machine range [lo, hi) of a machines-wide fleet: it accepts only events
// of those machines and credits idle intervals only for them. Partials over
// adjacent ranges combine with MergeFrom into exactly the analyzer a single
// full pass would have produced — the associativity the parallel scan
// relies on.
func NewStreamAnalyzerRange(span sim.Window, cal sim.Calendar, machines int, lo, hi MachineID) *StreamAnalyzer {
	if lo < 0 || hi < lo || (machines > 0 && int(hi) > machines) {
		panic(fmt.Sprintf("trace: analyzer range [%d, %d) outside fleet of %d", lo, hi, machines))
	}
	a := &StreamAnalyzer{
		span:       span,
		cal:        cal,
		machines:   machines,
		lo:         lo,
		hi:         hi,
		counts:     make([]CauseCounts, hi-lo),
		hourly:     [2]*stats.GroupedBins{stats.NewGroupedBins(24), stats.NewGroupedBins(24)},
		rebootsCut: DefaultRebootCutoff,
	}
	// Make every day of the span present in its day type's bins, so quiet
	// days count as zeros.
	if span.End > span.Start {
		startDay := cal.DayIndex(span.Start)
		endDay := cal.DayIndex(span.End - 1)
		for d := startDay; d <= endDay; d++ {
			dayStart := sim.Time(d) * sim.Day
			a.hourly[cal.DayType(dayStart)].Touch(d)
		}
	}
	return a
}

// Observe consumes one event. Events must arrive sorted by
// (machine, start); out-of-order input is rejected.
func (a *StreamAnalyzer) Observe(e Event) error {
	if a.finished {
		return fmt.Errorf("trace: StreamAnalyzer observed an event after Finish")
	}
	if err := e.Validate(); err != nil {
		return err
	}
	return a.observe(&e)
}

// observe is Observe for an event that already passed Event.Validate, on an
// analyzer known not to be finished: what the block scan calls on the events
// decodeColumns has just validated. It reads e and keeps nothing of it.
func (a *StreamAnalyzer) observe(e *Event) error {
	if e.Machine < 0 || (a.machines > 0 && int(e.Machine) >= a.machines) {
		return fmt.Errorf("trace: event machine %d outside 0..%d", e.Machine, a.machines-1)
	}
	if e.Machine < a.lo || (a.machines > 0 && e.Machine >= a.hi) {
		return fmt.Errorf("trace: event machine %d outside analyzer range [%d, %d)", e.Machine, a.lo, a.hi)
	}
	if a.started {
		if e.Machine < a.cur || (e.Machine == a.cur && e.Start < a.lastStart) {
			return fmt.Errorf("trace: StreamAnalyzer needs (machine, start)-sorted input; got machine %d start %v after machine %d start %v",
				e.Machine, e.Start, a.cur, a.lastStart)
		}
		if e.Machine != a.cur {
			a.closeMachine()
			a.creditIdle(a.cur+1, e.Machine)
			a.cur = e.Machine
		}
	} else {
		a.started = true
		a.creditIdle(a.lo, e.Machine)
		a.cur = e.Machine
		a.cursor = a.span.Start
	}
	a.lastStart = e.Start

	// Table 2 accumulation. A header with an unknown fleet size (machines
	// 0) grows the counts on demand.
	a.events++
	for int(e.Machine-a.lo) >= len(a.counts) {
		a.counts = append(a.counts, CauseCounts{})
	}
	c := &a.counts[e.Machine-a.lo]
	c.Total++
	switch e.Cause() {
	case availability.CauseCPU:
		c.CPU++
	case availability.CauseMemory:
		c.Memory++
	case availability.CauseRevocation:
		c.URR++
	}
	if e.State == availability.S5 {
		a.urrTotal++
		if e.Duration() < a.rebootsCut {
			a.urrReboots++
		}
	}

	// Figure 7 accumulation: count the event once in every hour it touches.
	hStart := e.Start / time.Hour
	hEnd := (e.End - 1) / time.Hour
	if e.End <= e.Start {
		hEnd = hStart
	}
	for h := hStart; h <= hEnd; h++ {
		at := sim.Time(h) * time.Hour
		a.hourly[a.cal.DayType(at)].Add(a.cal.DayIndex(at), a.cal.HourOfDay(at), 1)
	}

	// Figure 6 accumulation: extend or close the current coalesce run.
	if a.runOpen && e.Start <= a.runEnd {
		if e.End > a.runEnd {
			a.runEnd = e.End
		}
		return nil
	}
	if a.runOpen {
		a.emitRun()
	}
	a.runStart, a.runEnd, a.runOpen = e.Start, e.End, true
	return nil
}

// emitRun clips the closed coalesce run to the span and records the
// availability interval preceding it, advancing the cursor — the streaming
// form of Trace.Intervals.
func (a *StreamAnalyzer) emitRun() {
	s, en := a.runStart, a.runEnd
	a.runOpen = false
	if en <= a.span.Start || s >= a.span.End {
		return
	}
	if s < a.span.Start {
		s = a.span.Start
	}
	if en > a.span.End {
		en = a.span.End
	}
	if s > a.cursor {
		a.addInterval(a.cursor, s)
	}
	if en > a.cursor {
		a.cursor = en
	}
}

// closeMachine flushes the open run and trailing interval of the machine
// being consumed, and resets the cursor for the next one.
func (a *StreamAnalyzer) closeMachine() {
	if a.runOpen {
		a.emitRun()
	}
	if a.cursor < a.span.End {
		a.addInterval(a.cursor, a.span.End)
	}
	a.cursor = a.span.Start
}

// addInterval records one availability interval for Figure 6.
func (a *StreamAnalyzer) addInterval(start, end sim.Time) {
	dt := a.cal.DayType(start)
	a.ivLens[dt] = append(a.ivLens[dt], (end - start).Hours())
}

// creditIdle records one full-span availability interval for each machine
// in [from, to) — machines the sorted stream skipped over because they have
// no events. Crediting them in id order keeps the interval sequence
// identical to Trace.Intervals over machines in id order.
func (a *StreamAnalyzer) creditIdle(from, to MachineID) {
	if a.span.End <= a.span.Start {
		return
	}
	for m := from; m < to; m++ {
		a.addInterval(a.span.Start, a.span.End)
	}
}

// Finish closes the last machine's intervals and credits the trailing
// machines that never appeared in the stream. It must be called exactly
// once, after the last Observe.
func (a *StreamAnalyzer) Finish() {
	if a.finished {
		return
	}
	a.finished = true
	if a.started {
		a.closeMachine()
		a.creditIdle(a.cur+1, a.hi)
	} else {
		a.creditIdle(a.lo, a.hi)
	}
}

// Events returns how many events were observed.
func (a *StreamAnalyzer) Events() int { return a.events }

// MachineDays returns the machine-days covered by the analyzed span.
func (a *StreamAnalyzer) MachineDays() float64 {
	return float64(a.machines) * float64(a.span.Duration()) / float64(sim.Day)
}

// Table2 builds the paper's Table 2 from the accumulated counts. On a
// partial analyzer the ranges cover only the machines in [lo, hi).
func (a *StreamAnalyzer) Table2() Table2 {
	a.mustBeFinished()
	tb := Table2{RebootCutoff: a.rebootsCut}
	first := true
	for m := 0; m < len(a.counts); m++ {
		c := a.counts[m]
		if first {
			tb.Total = Range{c.Total, c.Total}
			tb.CPU = Range{c.CPU, c.CPU}
			tb.Memory = Range{c.Memory, c.Memory}
			tb.URR = Range{c.URR, c.URR}
			if c.Total > 0 {
				tb.CPUPct = [2]float64{pct(c.CPU, c.Total), pct(c.CPU, c.Total)}
				tb.MemoryPct = [2]float64{pct(c.Memory, c.Total), pct(c.Memory, c.Total)}
				tb.URRPct = [2]float64{pct(c.URR, c.Total), pct(c.URR, c.Total)}
			}
			first = false
			continue
		}
		tb.Total = widen(tb.Total, c.Total)
		tb.CPU = widen(tb.CPU, c.CPU)
		tb.Memory = widen(tb.Memory, c.Memory)
		tb.URR = widen(tb.URR, c.URR)
		if c.Total > 0 {
			tb.CPUPct = widenPct(tb.CPUPct, pct(c.CPU, c.Total))
			tb.MemoryPct = widenPct(tb.MemoryPct, pct(c.Memory, c.Total))
			tb.URRPct = widenPct(tb.URRPct, pct(c.URR, c.Total))
		}
	}
	if a.urrTotal > 0 {
		tb.RebootShare = float64(a.urrReboots) / float64(a.urrTotal)
	}
	return tb
}

// CountByCause returns the accumulated per-machine Table 2 counts.
func (a *StreamAnalyzer) CountByCause() map[MachineID]CauseCounts {
	out := make(map[MachineID]CauseCounts)
	for m, c := range a.counts {
		if c.Total > 0 {
			out[a.lo+MachineID(m)] = c
		}
	}
	return out
}

// MergeFrom folds the finished partial analyzer b, covering the machine
// range immediately after a's, into a — afterwards a covers [a.lo, b.hi)
// and every query answers exactly as a single serial pass over the combined
// range would have. Merging is associative: any grouping of adjacent
// partials yields the identical result, which is what lets the parallel
// scanner combine partials as workers finish. b must not be used again.
func (a *StreamAnalyzer) MergeFrom(b *StreamAnalyzer) error {
	if !a.finished || !b.finished {
		return fmt.Errorf("trace: MergeFrom needs both analyzers finished")
	}
	if a.span != b.span || a.cal != b.cal || a.machines != b.machines {
		return fmt.Errorf("trace: MergeFrom over mismatched traces (%v/%d vs %v/%d)", a.span, a.machines, b.span, b.machines)
	}
	if a.rebootsCut != b.rebootsCut {
		return fmt.Errorf("trace: MergeFrom over mismatched reboot cutoffs")
	}
	if b.lo != a.hi {
		return fmt.Errorf("trace: MergeFrom ranges not adjacent: [%d, %d) then [%d, %d)", a.lo, a.hi, b.lo, b.hi)
	}
	// Machine-indexed state concatenates; scalar tallies add; the hourly
	// bins sum per (day, hour) cell. Interval samples append in machine
	// order, preserving the exact sequence a serial pass emits.
	a.counts = append(a.counts, b.counts...)
	a.urrTotal += b.urrTotal
	a.urrReboots += b.urrReboots
	a.events += b.events
	for dt, lens := range b.ivLens {
		a.ivLens[dt] = append(a.ivLens[dt], lens...)
	}
	for dt, bins := range b.hourly {
		if err := a.hourly[dt].MergeFrom(bins); err != nil {
			return err
		}
	}
	a.hi = b.hi
	return nil
}

// IntervalLengths returns the accumulated interval durations (hours) for a
// day type, in the machine-then-time order of Trace.Intervals.
func (a *StreamAnalyzer) IntervalLengths(dt sim.DayType) []float64 {
	a.mustBeFinished()
	return a.ivLens[dt]
}

// IntervalECDF builds the Figure 6 curve from the accumulated intervals.
func (a *StreamAnalyzer) IntervalECDF(dt sim.DayType) *stats.ECDF {
	a.mustBeFinished()
	return stats.NewECDF(a.ivLens[dt])
}

// HourlyOccurrences returns the Figure 7 per-hour summaries for one day
// type.
func (a *StreamAnalyzer) HourlyOccurrences(dt sim.DayType) []stats.Summary {
	a.mustBeFinished()
	return a.hourly[dt].Summarize()
}

func (a *StreamAnalyzer) mustBeFinished() {
	if !a.finished {
		panic("trace: StreamAnalyzer queried before Finish")
	}
}
