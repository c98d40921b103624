package predict

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// History is the store of past unavailability the same-window estimators
// (HistoryWindow, EWMADaily, LastDay) read. The estimator maths exists once
// and runs over either of its two implementations: the trace-backed store
// Train builds (hourly count matrix + index, ≤ 40 ns per count — what keeps
// evaluation fast) and forecast.Online's bounded per-machine ring (O(1)
// ingest, ≈ 170 ns per count — what the control plane can afford to keep
// per node).
type History interface {
	// Calendar anchors virtual time to weekdays and weekends.
	Calendar() sim.Calendar
	// Span is the observed period; only windows inside it are history.
	Span() sim.Window
	// Machines is the fleet size: ids 0..Machines()-1 have a history, any
	// other id has none (distinct from an observed failure-free machine).
	Machines() int
	// CountInWindow returns how many events of machine m start in
	// [w.Start, w.End).
	CountInWindow(m trace.MachineID, w sim.Window) int
}

// known reports whether machine m is part of h's fleet. A nil History (an
// untrained predictor) knows no machine.
func known(h History, m trace.MachineID) bool {
	return h != nil && m >= 0 && int(m) < h.Machines()
}

// traceHistory is the History over a recorded trace, and the ground truth
// of the evaluation: window counts come from the hourly matrix when the
// window is hour-aligned and from the index binary search otherwise (both
// count exactly the same events), overlap tests from the index.
type traceHistory struct {
	tr *trace.Trace
	hc *trace.HourlyCounts
	ix *trace.Index
}

func newTraceHistory(tr *trace.Trace) *traceHistory {
	return &traceHistory{tr: tr, hc: tr.BuildHourlyCounts(), ix: tr.BuildIndex()}
}

func (t *traceHistory) Calendar() sim.Calendar { return t.tr.Calendar }
func (t *traceHistory) Span() sim.Window       { return t.tr.Span }
func (t *traceHistory) Machines() int          { return t.tr.Machines }

func (t *traceHistory) CountInWindow(m trace.MachineID, w sim.Window) int {
	if n, ok := t.hc.CountInWindow(m, w); ok {
		return n
	}
	return t.ix.CountInWindow(m, w)
}

func (t *traceHistory) AnyOverlap(m trace.MachineID, w sim.Window) bool {
	return t.ix.AnyOverlap(m, w)
}

// ForEachHistoryWindow walks, in calendar-day order, the clock windows
// matching w on prior days within span, calling fn for each fully observed
// history window. It is the single definition of "same-window history";
// only the estimators in this package call it, so the contributing windows,
// their order, and therefore the floating-point accumulation order are the
// same whichever History they run over.
//
// sameDayType selects the HistoryWindow rule (only days of w's day type
// contribute, scanning every day of the span); without it the EWMADaily
// rule applies (every day strictly before w's own day contributes). In
// both modes a history window must lie inside span and end at or before
// w.Start to count as history.
func ForEachHistoryWindow(cal sim.Calendar, span sim.Window, w sim.Window, sameDayType bool, fn func(hw sim.Window)) {
	offStart := cal.TimeOfDay(w.Start)
	dur := w.Duration()
	dayType := cal.DayType(w.Start)
	last := cal.DayIndex(w.Start) - 1
	if sameDayType {
		last = cal.DayIndex(span.End - 1)
	}
	for d := cal.DayIndex(span.Start); d <= last; d++ {
		dayStart := sim.Time(d) * sim.Day
		if sameDayType && cal.DayType(dayStart) != dayType {
			continue
		}
		hw := sim.Window{Start: dayStart + offStart, End: dayStart + offStart + dur}
		if hw.Start < span.Start || hw.End > span.End || hw.End > w.Start {
			continue
		}
		fn(hw)
	}
}
