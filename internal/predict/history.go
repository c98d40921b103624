package predict

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// History is the store of past unavailability the same-window estimators
// (HistoryWindow, EWMADaily, LastDay) read. The estimator maths exists once
// and runs over either of its two implementations: the TraceHistory Train
// is handed (the index, ≤ 40 ns per count — what keeps evaluation fast)
// and forecast.Online's bounded per-machine ring (O(1) ingest, ≈ 170 ns per
// count — what the control plane can afford to keep per node).
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

// TraceHistory is the History over a recorded trace, and the evaluation's
// ground truth: the trace and its index, built once by NewTraceHistory and
// only read after, so predictors on any number of goroutines share one.
type TraceHistory struct {
	tr *trace.Trace
	*trace.Index
}

// NewTraceHistory indexes tr. Neither tr nor the index may change after.
func NewTraceHistory(tr *trace.Trace) *TraceHistory {
	return &TraceHistory{tr: tr, Index: tr.BuildIndex()}
}

// Trace is the indexed trace, for predictors that read its events whole.
func (t *TraceHistory) Trace() *trace.Trace { return t.tr }

func (t *TraceHistory) Calendar() sim.Calendar { return t.tr.Calendar }
func (t *TraceHistory) Span() sim.Window       { return t.tr.Span }
func (t *TraceHistory) Machines() int          { return t.tr.Machines }

// maxPastMemo caps a windowMemo's past-window answers at 2¹⁰ (40 B each),
// emptied at the cap, and maxMachineMemo one machine's list at 32, past
// which its last slot is recycled. Evaluation needs 16 shapes a machine on
// the default 3-hour grid; a caller asking at arbitrary times (gsched's
// Predictive) makes a new shape of nearly every window, and scans ≤ 32.
const (
	maxPastMemo    = 1 << 10
	maxMachineMemo = 32
)

// memoKey names one same-window estimate: machine, window, and the exported
// fields the answer reads (Trim and MinHistoryDays, or Alpha), as bits.
type memoKey struct {
	m       trace.MachineID
	w       sim.Window
	param   uint64
	minDays int
}

// pastAnswer is a past window's answer, filed under the window's shape: the
// window moved to day 0, and its day type (see pastShape).
type pastAnswer struct {
	shape   sim.Window
	dayType sim.DayType
	value   [2]float64
}

// pastShape reports whether w is a past window of machine m over src and
// returns its shape: w moved to day 0, and its day type. A window of
// positive length that starts at or after the end of src's span is one, and
// its answer depends on the window only through its shape (a machine
// outside src's fleet answers without history, so it has no past windows).
// Every history window ForEachHistoryWindow yields ends inside the span, so
// its "ends by w.Start" cut never fires. HistoryWindow walks the span's
// days whatever w's; EWMADaily walks to the day before w's, so two past
// windows of one shape differ only by days from the span's last day on.
// Past that day the shape's clock window ends past the span and yields
// nothing; on it, the clock window either does the same or lies inside the
// span, and then no past window of the shape falls on that day, so all walk
// it. A window of no length is not a past window: days past the span can
// yield empty or inverted history windows for it, and whether there are any
// decides whether EWMADaily has history at all.
func pastShape(src History, m trace.MachineID, w sim.Window) (shape sim.Window, dayType sim.DayType, ok bool) {
	if !known(src, m) || w.End <= w.Start || w.Start < src.Span().End {
		return w, 0, false
	}
	cal := src.Calendar()
	tod := cal.TimeOfDay(w.Start)
	return sim.Window{Start: tod, End: tod + w.Duration()}, cal.DayType(w.Start), true
}

// windowMemo holds a same-window estimator's (count, survival) answers over
// the store Train fixed; Train resets it. The last answer is kept whatever
// the window — evaluation asks PredictCount and PredictSurvival of one
// (machine, window) back to back — and past windows' answers in a short
// list per machine of src's fleet, for the fields the answer reads as of
// the last lookup. Not goroutine-safe.
type windowMemo struct {
	last    memoKey
	value   [2]float64
	valid   bool
	param   uint64
	minDays int
	past    [][]pastAnswer // by machine; emptied, never dropped
	n       int            // answers in past
}

func (mm *windowMemo) reset() {
	mm.valid = false
	for i := range mm.past {
		mm.past[i] = mm.past[i][:0]
	}
	mm.n = 0
}

// get returns the answer for k over src, computing and keeping it on a miss.
func (mm *windowMemo) get(src History, k memoKey, compute func() (count, survival float64)) (count, survival float64) {
	if mm.valid && mm.last == k {
		return mm.value[0], mm.value[1]
	}
	var list []pastAnswer
	shape, dayType, past := pastShape(src, k.m, k.w)
	if past {
		if k.param != mm.param || k.minDays != mm.minDays || mm.n >= maxPastMemo {
			mm.reset()
			mm.param, mm.minDays = k.param, k.minDays
		}
		if int(k.m) >= len(mm.past) {
			mm.past = append(mm.past, make([][]pastAnswer, int(k.m)+1-len(mm.past))...)
		}
		list = mm.past[k.m]
	}
	i := 0
	for i < len(list) && (list[i].shape != shape || list[i].dayType != dayType) {
		i++
	}
	var v [2]float64
	if i < len(list) {
		v = list[i].value
	} else if v[0], v[1] = compute(); past {
		if i == maxMachineMemo { // a full list gives up its last slot
			list, mm.n = list[:i-1], mm.n-1
		}
		mm.past[k.m] = append(list, pastAnswer{shape, dayType, v})
		mm.n++
	}
	mm.last, mm.value, mm.valid = k, v, true
	return v[0], v[1]
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
