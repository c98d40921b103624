package trace

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// CauseCounts are per-machine unavailability counts by root cause — one row
// of the paper's Table 2 for a single machine.
type CauseCounts struct {
	Total  int
	CPU    int
	Memory int
	URR    int
}

// Range is a min..max band over the machines of a testbed, the form in
// which Table 2 reports every quantity.
type Range struct {
	Min, Max int
}

// Table2 reproduces the paper's Table 2: the per-machine frequency of
// unavailability by cause, as ranges across all machines, plus the derived
// percentage bands.
type Table2 struct {
	Total  Range
	CPU    Range
	Memory Range
	URR    Range
	// Percentage bands relative to each machine's total.
	CPUPct    [2]float64
	MemoryPct [2]float64
	URRPct    [2]float64
	// RebootShare is the fraction of URR events that look like reboots
	// (outage shorter than RebootCutoff); the paper reports ~90%.
	RebootShare  float64
	RebootCutoff time.Duration
}

// DefaultRebootCutoff separates machine reboots from hardware/software
// failures by outage length, per Section 5.1 ("URR with intervals shorter
// than one minute" are reboots).
const DefaultRebootCutoff = time.Minute

// analyze feeds the trace's events, in (machine, start, end) order, through
// the StreamAnalyzer — the one accumulator behind every Table 2, Figure 6
// and Figure 7 method on Trace, so the in-memory and streaming analyses
// cannot drift apart. The accumulator accepts exactly the events Validate
// accepts; analyzing a trace Validate would reject is a caller bug and
// panics with the offending event.
func (t *Trace) analyze() *StreamAnalyzer {
	events := t.Events
	if !eventsSorted(events) {
		c := t.Clone()
		c.Sort()
		events = c.Events
	}
	a := NewStreamAnalyzer(t.Span, t.Calendar, t.Machines)
	for _, e := range events {
		if err := a.Observe(e); err != nil {
			panic(fmt.Sprintf("trace: analyzing an invalid trace (see Validate): %v", err))
		}
	}
	a.Finish()
	return a
}

// MakeTable2 computes Table 2 over all machines in the trace.
func (t *Trace) MakeTable2() Table2 { return t.analyze().Table2() }

// pct is the share of part in total, with an empty total reading as 0%
// rather than NaN so zero-event machines produce clean Table 2 rows.
func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func widen(r Range, v int) Range {
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
	return r
}

func widenPct(r [2]float64, v float64) [2]float64 {
	if v < r[0] {
		r[0] = v
	}
	if v > r[1] {
		r[1] = v
	}
	return r
}

// IntervalECDFs builds the Figure 6 curves, weekday and weekend, from one
// pass over the trace: the empirical CDF of availability-interval lengths
// (in hours) for intervals that begin on a day of each type.
func (t *Trace) IntervalECDFs() (weekday, weekend *stats.ECDF) {
	a := t.analyze()
	return a.IntervalECDF(sim.Weekday), a.IntervalECDF(sim.Weekend)
}

// HourlyOccurrences reproduces Figure 7 for one day type: for each hour of
// day, the mean and min..max range (across the days of that type in the
// trace) of the number of unavailability occurrences in that hour, summed
// over all machines. An event spanning multiple hours is counted once in
// every hour interval it touches, exactly as the paper specifies.
func (t *Trace) HourlyOccurrences(dt sim.DayType) []stats.Summary {
	return t.analyze().HourlyOccurrences(dt)
}

// HourlyCountSeries returns the fleet-wide unavailability counts per hour
// over the whole span, one entry per hour of observation counted from
// Span.Start (events spanning several hours count once per hour, as in
// Figure 7). A partial final hour
// gets its own entry — the span length rounds up to whole hours — so
// events in the span tail are never silently dropped from the daily and
// weekly autocorrelation series. Feeding this series to
// stats.AutoCorrelation at lags of 24 and 168 hours quantifies the
// paper's daily- and weekly-pattern claim directly.
func (t *Trace) HourlyCountSeries() []float64 {
	hours := int((t.Span.Duration() + time.Hour - 1) / time.Hour)
	if hours <= 0 {
		return nil
	}
	out := make([]float64, hours)
	for _, e := range t.Events {
		hStart := sim.FloorHour(e.Start - t.Span.Start)
		hEnd := sim.FloorHour(e.End - 1 - t.Span.Start)
		if e.End <= e.Start {
			hEnd = hStart
		}
		for h := max(hStart, 0); h <= hEnd && h < int64(hours); h++ {
			out[h]++
		}
	}
	return out
}
