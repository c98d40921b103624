package trace

import (
	"sort"

	"repro/internal/sim"
)

// Index accelerates per-machine window queries over a trace from O(events)
// to O(log events). Build it once per trace; it is immutable afterwards and
// safe for concurrent readers.
type Index struct {
	byStart map[MachineID][]Event    // sorted by Start
	maxEnd  map[MachineID][]sim.Time // prefix maxima of End over byStart
	byEnd   map[MachineID][]sim.Time // event End times, sorted
	maxDur  map[MachineID]sim.Time   // longest event duration
}

// BuildIndex indexes the trace's events per machine.
func (t *Trace) BuildIndex() *Index {
	ix := &Index{
		byStart: make(map[MachineID][]Event),
		maxEnd:  make(map[MachineID][]sim.Time),
		byEnd:   make(map[MachineID][]sim.Time),
		maxDur:  make(map[MachineID]sim.Time),
	}
	for _, e := range t.Events {
		ix.byStart[e.Machine] = append(ix.byStart[e.Machine], e)
	}
	for m, evs := range ix.byStart {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End < evs[j].End
		})
		prefix := make([]sim.Time, len(evs))
		ends := make([]sim.Time, len(evs))
		var max sim.Time
		var maxDur sim.Time
		for i, e := range evs {
			if i == 0 || e.End > max {
				max = e.End
			}
			prefix[i] = max
			ends[i] = e.End
			if d := e.End - e.Start; d > maxDur {
				maxDur = d
			}
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		ix.byStart[m] = evs
		ix.maxEnd[m] = prefix
		ix.byEnd[m] = ends
		ix.maxDur[m] = maxDur
	}
	return ix
}

// FirstOverlap returns the event of machine m whose overlap with w begins
// earliest, and whether any event overlaps at all. An event already open at
// w.Start wins over one that starts later inside the window.
func (ix *Index) FirstOverlap(m MachineID, w sim.Window) (Event, bool) {
	evs := ix.byStart[m]
	first := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.Start })
	// Events starting before w.Start may still be open at w.Start; only
	// events within maxDur of w.Start can qualify, which bounds the
	// backward scan.
	horizon := w.Start - ix.maxDur[m]
	var best Event
	found := false
	for j := first - 1; j >= 0 && evs[j].Start >= horizon; j-- {
		if evs[j].End > w.Start {
			best = evs[j]
			found = true
			// Keep scanning: an even earlier event could still be open,
			// but any open event overlaps at w.Start, so one hit is
			// enough — overlap start is w.Start either way.
			break
		}
	}
	if found {
		return best, true
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

// CountInWindow returns how many events of machine m start in
// [w.Start, w.End).
func (ix *Index) CountInWindow(m MachineID, w sim.Window) int {
	evs := ix.byStart[m]
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.Start })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.End })
	return hi - lo
}

// OverlapExists reports whether any event of machine m overlaps w.
func (ix *Index) OverlapExists(m MachineID, w sim.Window) bool {
	evs := ix.byStart[m]
	// Candidate events start before w.End.
	k := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.End })
	if k == 0 {
		return false
	}
	// Among them, some event overlaps iff the largest End exceeds w.Start.
	return ix.maxEnd[m][k-1] > w.Start
}

// AnyOverlap is OverlapExists under the name the predictors' ground-truth
// interface uses.
func (ix *Index) AnyOverlap(m MachineID, w sim.Window) bool {
	return ix.OverlapExists(m, w)
}

// NextEventAfter returns the first event of machine m starting at or after
// ts, and whether one exists; ties on start resolve to the earliest end.
func (ix *Index) NextEventAfter(m MachineID, ts sim.Time) (Event, bool) {
	evs := ix.byStart[m]
	k := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= ts })
	if k == len(evs) {
		return Event{}, false
	}
	return evs[k], true
}

// LastEndBefore returns the latest event end time of machine m at or
// before t, and whether one exists.
func (ix *Index) LastEndBefore(m MachineID, t sim.Time) (sim.Time, bool) {
	ends := ix.byEnd[m]
	k := sort.Search(len(ends), func(i int) bool { return ends[i] > t })
	if k == 0 {
		return 0, false
	}
	return ends[k-1], true
}
