package trace

import (
	"slices"
	"sort"

	"repro/internal/sim"
)

// Index accelerates per-machine window queries over a trace from O(events)
// to O(log events). Build it once per trace; it is immutable afterwards and
// safe for concurrent readers.
type Index struct {
	machines map[MachineID]*machinePointIndex
}

// machinePointIndex is one machine's events laid out for point queries. It
// owns the layout, its construction and the query bodies; Index builds one
// per machine eagerly and BlockIndex lazily, and both answer from it.
type machinePointIndex struct {
	byStart []Event    // sorted by (Start, End)
	maxEnd  []sim.Time // prefix maxima of End over byStart
	byEnd   []sim.Time // event End times, sorted
	maxDur  sim.Time   // longest event duration
	// The machine's hourly prefix rows, which startsBefore and lastEndBefore
	// answer from; nil until buildHours, and past maxRowHours.
	loHour int64
	hours  []int32 // hours[h] counts starts before hour loHour+h
	ends   []int32 // ends[h] counts ends before hour loHour+h
}

// maxRowHours caps a machine's hourly rows at 2¹⁶ hours (≈ 7.5 years), so
// its two rows cost at most 512 KiB. The rows cover the span and every
// event start, and a block file's span comes from its header, outside
// input: a forged ±2⁶³ ns would cost 40 MB a machine. Legal traces sit far
// inside the cap (spans ≤ 365 days); past it no row is built and queries
// binary-search.
const maxRowHours = 1 << 16

// noEvents answers for machines the trace never mentions.
var noEvents = &machinePointIndex{}

// newMachinePointIndex lays out one machine's events, already sorted by
// (Start, End); it keeps evs.
func newMachinePointIndex(evs []Event) *machinePointIndex {
	mi := &machinePointIndex{
		byStart: evs,
		maxEnd:  make([]sim.Time, len(evs)),
		byEnd:   make([]sim.Time, len(evs)),
	}
	var max sim.Time
	for i, e := range evs {
		if i == 0 || e.End > max {
			max = e.End
		}
		mi.maxEnd[i] = max
		mi.byEnd[i] = e.End
		if d := e.End - e.Start; d > mi.maxDur {
			mi.maxDur = d
		}
	}
	slices.Sort(mi.byEnd)
	return mi
}

// buildHours adds the hourly prefix rows, covering span and every event
// start, unless that is more than maxRowHours hours. Ends past the last
// hour are left out of the ends row: they are all at its tail in byEnd.
func (mi *machinePointIndex) buildHours(span sim.Window) {
	lo := sim.FloorHour(span.Start)
	hi := sim.FloorHour(span.End-1) + 1
	if span.End <= span.Start {
		hi = lo
	}
	if n := len(mi.byStart); n > 0 {
		lo = min(lo, sim.FloorHour(mi.byStart[0].Start))
		hi = max(hi, sim.FloorHour(mi.byStart[n-1].Start)+1)
	}
	if hi-lo > maxRowHours {
		return
	}
	n := int(hi-lo) + 1
	rows := make([]int32, 2*n)
	mi.loHour, mi.hours, mi.ends = lo, rows[:n:n], rows[n:]
	for i, e := range mi.byStart {
		mi.hours[sim.FloorHour(e.Start)-lo+1]++
		if h := max(sim.FloorHour(mi.byEnd[i])-lo+1, 0); h < int64(n) {
			mi.ends[h]++
		}
	}
	for h := 1; h < n; h++ {
		mi.hours[h] += mi.hours[h-1]
		mi.ends[h] += mi.ends[h-1]
	}
}

// rowRange narrows a search for t among n sorted times by their hourly row
// to [lo, hi), those in t's hour (all n without a row).
func (mi *machinePointIndex) rowRange(row []int32, n int, t sim.Time) (lo, hi int) {
	h := sim.FloorHour(t) - mi.loHour
	switch {
	case row == nil:
		return 0, n
	case h < 0:
		return 0, int(row[0])
	case h >= int64(len(row)-1):
		return int(row[len(row)-1]), n
	}
	return int(row[h]), int(row[h+1])
}

// startsBefore returns how many events start before t, searching only
// those that start in t's hour.
func (mi *machinePointIndex) startsBefore(t sim.Time) int {
	lo, hi := mi.rowRange(mi.hours, len(mi.byStart), t)
	evs := mi.byStart[lo:hi]
	return lo + sort.Search(len(evs), func(i int) bool { return evs[i].Start >= t })
}

func (mi *machinePointIndex) firstOverlap(w sim.Window) (Event, bool) {
	evs := mi.byStart
	first := mi.startsBefore(w.Start)
	// Events starting before w.Start may still be open at w.Start; only
	// those within maxDur of it can be, which bounds the backward scan. Any
	// open event overlaps from w.Start on, so the first hit wins.
	horizon := w.Start - mi.maxDur
	for j := first - 1; j >= 0 && evs[j].Start >= horizon; j-- {
		if evs[j].End > w.Start {
			return evs[j], true
		}
	}
	// An event starting inside [w.Start, w.End) genuinely overlaps unless
	// it is zero-length and sits exactly on w.Start (End == w.Start, since
	// End >= Start >= w.Start). Those sort first among equal starts, so
	// skip past them rather than returning a non-overlapping event — or
	// worse, shadowing a real overlap later in the window.
	for j := first; j < len(evs) && evs[j].Start < w.End; j++ {
		if evs[j].End > w.Start {
			return evs[j], true
		}
	}
	return Event{}, false
}

func (mi *machinePointIndex) countInWindow(w sim.Window) int {
	if w.End <= w.Start {
		return 0
	}
	return mi.startsBefore(w.End) - mi.startsBefore(w.Start)
}

func (mi *machinePointIndex) anyOverlap(w sim.Window) bool {
	// Candidate events start before w.End; among them, some event overlaps
	// iff the largest End exceeds w.Start.
	k := mi.startsBefore(w.End)
	return k > 0 && mi.maxEnd[k-1] > w.Start
}

func (mi *machinePointIndex) nextEventAfter(ts sim.Time) (Event, bool) {
	k := mi.startsBefore(ts)
	if k == len(mi.byStart) {
		return Event{}, false
	}
	return mi.byStart[k], true
}

// lastEndBefore searches only the ends in t's hour, as startsBefore does.
func (mi *machinePointIndex) lastEndBefore(t sim.Time) (sim.Time, bool) {
	lo, hi := mi.rowRange(mi.ends, len(mi.byEnd), t)
	ends := mi.byEnd[lo:hi]
	k := lo + sort.Search(len(ends), func(i int) bool { return ends[i] > t })
	if k == 0 {
		return 0, false
	}
	return mi.byEnd[k-1], true
}

// BuildIndex indexes the trace's events per machine, over one copy of them
// sorted by (machine, start, end): each machine's run is its layout.
func (t *Trace) BuildIndex() *Index {
	evs := slices.Clone(t.Events)
	slices.SortFunc(evs, eventCmp)
	ix := &Index{machines: make(map[MachineID]*machinePointIndex)}
	for lo, hi := 0, 0; lo < len(evs); lo = hi {
		for hi = lo + 1; hi < len(evs) && evs[hi].Machine == evs[lo].Machine; hi++ {
		}
		mi := newMachinePointIndex(evs[lo:hi:hi])
		mi.buildHours(t.Span)
		ix.machines[evs[lo].Machine] = mi
	}
	return ix
}

func (ix *Index) machine(m MachineID) *machinePointIndex {
	if mi := ix.machines[m]; mi != nil {
		return mi
	}
	return noEvents
}

// FirstOverlap returns the event of machine m whose overlap with w begins
// earliest, and whether any event overlaps at all. An event already open at
// w.Start wins over one that starts later inside the window.
func (ix *Index) FirstOverlap(m MachineID, w sim.Window) (Event, bool) {
	return ix.machine(m).firstOverlap(w)
}

// CountInWindow returns how many events of machine m start in
// [w.Start, w.End).
func (ix *Index) CountInWindow(m MachineID, w sim.Window) int {
	return ix.machine(m).countInWindow(w)
}

// AnyOverlap reports whether any event of machine m overlaps w.
func (ix *Index) AnyOverlap(m MachineID, w sim.Window) bool {
	return ix.machine(m).anyOverlap(w)
}

// NextEventAfter returns the first event of machine m starting at or after
// ts, and whether one exists; ties on start resolve to the earliest end.
func (ix *Index) NextEventAfter(m MachineID, ts sim.Time) (Event, bool) {
	return ix.machine(m).nextEventAfter(ts)
}

// LastEndBefore returns the latest event end time of machine m at or
// before t, and whether one exists.
func (ix *Index) LastEndBefore(m MachineID, t sim.Time) (sim.Time, bool) {
	return ix.machine(m).lastEndBefore(t)
}
