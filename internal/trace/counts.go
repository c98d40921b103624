package trace

import (
	"time"

	"repro/internal/sim"
)

// HourlyCounts is a per-machine matrix of event-start counts per absolute
// hour, stored as prefix sums, answering hour-aligned window-count queries
// in O(1) — plain array slicing instead of the per-day binary searches the
// history-window predictor otherwise performs. Build once per trace; it is
// immutable afterwards and safe for concurrent readers.
type HourlyCounts struct {
	// loHour is the absolute hour index of column 0.
	loHour int64
	hours  int
	// prefix[m][h] counts the events of machine m starting before hour
	// loHour+h, so a count over hour columns [a, b) is prefix[b]-prefix[a].
	prefix [][]int32
}

// BuildHourlyCounts scans the trace once and builds the matrix. The hour
// range covers the span and every event start, so any hour-aligned window
// is answered exactly.
func (t *Trace) BuildHourlyCounts() *HourlyCounts {
	lo := sim.FloorHour(t.Span.Start)
	hi := sim.FloorHour(t.Span.End-1) + 1
	if t.Span.End <= t.Span.Start {
		hi = lo
	}
	machines := t.Machines
	for _, e := range t.Events {
		if h := sim.FloorHour(e.Start); h < lo {
			lo = h
		} else if h >= hi {
			hi = h + 1
		}
		if int(e.Machine) >= machines {
			machines = int(e.Machine) + 1
		}
	}
	hours := int(hi - lo)
	hc := &HourlyCounts{loHour: lo, hours: hours, prefix: make([][]int32, machines)}
	cells := make([]int32, machines*(hours+1))
	for m := range hc.prefix {
		hc.prefix[m] = cells[m*(hours+1) : (m+1)*(hours+1)]
	}
	for _, e := range t.Events {
		if e.Machine < 0 {
			continue
		}
		hc.prefix[e.Machine][sim.FloorHour(e.Start)-lo+1]++
	}
	for _, row := range hc.prefix {
		for h := 1; h < len(row); h++ {
			row[h] += row[h-1]
		}
	}
	return hc
}

// Aligned reports whether w can be answered exactly by the matrix: both
// bounds on hour boundaries. Misaligned windows must fall back to an index
// or scan query.
func (hc *HourlyCounts) Aligned(w sim.Window) bool {
	return w.Start%time.Hour == 0 && w.End%time.Hour == 0
}

// CountInWindow returns how many events of machine m start in [w.Start,
// w.End), and whether the matrix could answer (false for misaligned
// windows or unknown machines — callers then fall back to Index queries).
func (hc *HourlyCounts) CountInWindow(m MachineID, w sim.Window) (int, bool) {
	if !hc.Aligned(w) {
		return 0, false
	}
	if m < 0 || int(m) >= len(hc.prefix) {
		// No events and no column for this machine: the count is zero as
		// long as the machine id is simply absent (matrices cover machines
		// 0..n-1, so ids beyond the fleet hold no events by construction).
		if m >= 0 {
			return 0, true
		}
		return 0, false
	}
	a := sim.FloorHour(w.Start) - hc.loHour
	b := sim.FloorHour(w.End) - hc.loHour
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	if a > int64(hc.hours) {
		a = int64(hc.hours)
	}
	if b > int64(hc.hours) {
		b = int64(hc.hours)
	}
	if b < a {
		b = a
	}
	row := hc.prefix[m]
	return int(row[b] - row[a]), true
}

// Hours returns the number of hour columns in the matrix.
func (hc *HourlyCounts) Hours() int { return hc.hours }
