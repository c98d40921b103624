package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Index answers per-machine point queries — FirstOverlap, CountInWindow,
// AnyOverlap, NextEventAfter, LastEndBefore — in O(log events), over a trace
// (BuildIndex, whose sorted copy is its one block, decoded already) or a v2
// block file (NewBlockIndex), with the same answers for the same events. A
// machine's layout is built on its first query from the run of blocks whose
// summaries admit it, each decoded at most once per index and outside any
// index-wide lock, so readers first touching different blocks decode them
// at once; two readers first asking about one machine together may both
// lay it out, and the first to publish wins. After that its queries take
// no lock, so any number of goroutines may share one index.
//
// An index holds, per machine asked about, its events (in place when they
// sit in one block, copied when they straddle blocks), two time slices of
// that length and at most 2¹⁶ hours of rows (maxRowHours); every block it
// decoded; and an 8-byte slot a machine id, from the lowest id with events
// to at most twice the highest asked about. Nothing is sized from the
// header's machine count, which is outside input.
type Index struct {
	span   sim.Window
	bf     *BlockFile  // nil over a trace
	metas  []BlockMeta // block summaries, in file order
	lo, hi MachineID   // machines outside [lo, hi] have no events

	// slots holds machine lo+i's layout in slot i once built; it grows
	// under mu, and a reader holding a superseded copy finds its slot
	// empty and asks again under mu.
	slots atomic.Pointer[[]atomic.Pointer[machinePointIndex]]

	blocks  []blockCell // block i's events once its first reader decoded them
	decoded atomic.Int64

	mu  sync.Mutex // guards err and the growth of slots
	err error
}

// blockCell is one block's decode, run once by whichever reader needs the
// block first while any others needing it wait.
type blockCell struct {
	once   sync.Once
	events []Event
	err    error
}

// blockBufs holds the decode scratch — payload and inflater — that a
// block's decode borrows; the events it decodes into stay with the block.
var blockBufs = sync.Pool{New: func() any { return new(BlockBuf) }}

// machinePointIndex is one machine's events laid out for point queries.
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

// noEvents answers for machines the index holds no event of.
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

// BuildIndex indexes the trace over one copy of its events sorted by
// (machine, start, end): each machine's run in it is that machine's layout.
func (t *Trace) BuildIndex() *Index {
	evs := slices.Clone(t.Events)
	slices.SortFunc(evs, eventCmp)
	ix := newIndex(t.Span, nil, []BlockMeta{summarize(evs)})
	ix.blocks[0].once.Do(func() { ix.blocks[0].events = evs })
	return ix
}

// NewBlockIndex indexes a v2 block file, decoding a block when a query
// first needs it.
func NewBlockIndex(bf *BlockFile) *Index {
	return newIndex(bf.Header().Span, bf, bf.blocks)
}

func newIndex(span sim.Window, bf *BlockFile, metas []BlockMeta) *Index {
	ix := &Index{span: span, bf: bf, metas: metas, lo: math.MaxInt, hi: math.MinInt, blocks: make([]blockCell, len(metas))}
	for _, b := range metas {
		if b.Count > 0 {
			ix.lo, ix.hi = min(ix.lo, b.MinMachine), max(ix.hi, b.MaxMachine)
		}
	}
	ix.slots.Store(new([]atomic.Pointer[machinePointIndex]))
	return ix
}

// BlocksDecoded returns how many block decodes all queries so far have cost
// — the quantity the summaries exist to minimize. Over a trace it is 0.
func (ix *Index) BlocksDecoded() int { return int(ix.decoded.Load()) }

// Err returns the first block decode error encountered, if any. Queries on
// a machine whose blocks failed to decode answer from the events decoded
// before the failure.
func (ix *Index) Err() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.err
}

// block returns block i's decoded events, or its decode error, decoding
// on first touch and keeping the slice it decoded into: the pooled
// buffer's event slice is handed to the cache and the next decode makes
// its own, so a block is inflated, decoded and stored once, with no second
// copy. Small machines share blocks and a big machine's tail can share the
// next one's, so without the cache a sweep over the fleet would inflate
// those once per machine in them. Cached blocks are only ever read —
// layouts alias them.
func (ix *Index) block(i int) ([]Event, error) {
	c := &ix.blocks[i]
	c.once.Do(func() {
		ix.decoded.Add(1)
		buf := blockBufs.Get().(*BlockBuf)
		buf.events = nil
		c.events, c.err = ix.bf.DecodeBlock(i, buf)
		buf.events = nil
		blockBufs.Put(buf)
	})
	return c.events, c.err
}

// AppendEvents appends to dst every event matching f, in file order,
// decoding only the blocks the summaries cannot rule out. It reads through
// the index's block cache — a block it decodes is free for later point
// queries and vice versa.
func (ix *Index) AppendEvents(dst []Event, f ScanFilter) ([]Event, error) {
	for i, meta := range ix.metas {
		if !f.AdmitBlock(meta) {
			continue
		}
		events, err := ix.block(i)
		if err != nil {
			return nil, err
		}
		for j := range events {
			if f.AdmitEvent(events[j]) {
				dst = append(dst, events[j])
			}
		}
	}
	return dst, nil
}

// machine returns m's layout, building it on m's first query. A machine
// below lo wraps to a slot index past any slice.
func (ix *Index) machine(m MachineID) *machinePointIndex {
	if s, i := *ix.slots.Load(), uint(m-ix.lo); i < uint(len(s)) {
		if mi := s[i].Load(); mi != nil {
			return mi
		}
	}
	return ix.build(m)
}

// build lays out m's events and publishes the layout in m's slot under
// ix.mu, unless a query that got there first already did, growing the
// slots to reach it: at least doubling, and never past the blocks' machine
// range.
func (ix *Index) build(m MachineID) *machinePointIndex {
	if m < ix.lo || m > ix.hi {
		return noEvents
	}
	mi, err := ix.buildMachine(m)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.err = cmp.Or(ix.err, err)
	i, s := int(m-ix.lo), *ix.slots.Load()
	if i < len(s) {
		if first := s[i].Load(); first != nil {
			return first
		}
	} else {
		grown := make([]atomic.Pointer[machinePointIndex], min(max(i+1, 2*len(s)), int(ix.hi-ix.lo)+1))
		for j := range s {
			grown[j].Store(s[j].Load())
		}
		ix.slots.Store(&grown)
		s = grown
	}
	s[i].Store(mi)
	return mi
}

// buildMachine lays out m's events with the hourly rows, from the events
// decoded before the first error, which it returns.
func (ix *Index) buildMachine(m MachineID) (*machinePointIndex, error) {
	// Block MaxMachine is nondecreasing in file order (the event stream is
	// machine-sorted), so m's blocks are the run starting at the first
	// block whose MaxMachine reaches m; inside a block m's rows are one run
	// too, found by binary search. A machine that sits in one block is
	// indexed in place, as a capped read-only sub-slice of the cached block;
	// one straddling blocks (as the writer cuts, > ¾ BlockSize events) is copied.
	var evs []Event
	var err error
	first := sort.Search(len(ix.metas), func(i int) bool { return ix.metas[i].MaxMachine >= m })
	for i := first; i < len(ix.metas) && ix.metas[i].MinMachine <= m; i++ {
		if ix.metas[i].Count == 0 {
			continue
		}
		var events []Event
		if events, err = ix.block(i); err != nil {
			break
		}
		lo := sort.Search(len(events), func(j int) bool { return events[j].Machine >= m })
		hi := lo + sort.Search(len(events)-lo, func(j int) bool { return events[lo+j].Machine > m })
		if evs == nil {
			evs = events[lo:hi:hi]
		} else if lo < hi && len(evs) > 0 && eventCmp(events[lo], evs[len(evs)-1]) < 0 {
			err = fmt.Errorf("trace: block %d: machine %d's events out of order with the block before", i, m)
			break
		} else {
			evs = append(evs, events[lo:hi]...)
		}
	}
	if len(evs) == 0 {
		return noEvents, err
	}
	// File order within a machine is (Start, End), the layout's order: the
	// decoder holds each block to it, the seam check above each join.
	mi := newMachinePointIndex(evs)
	mi.buildHours(ix.span)
	return mi, err
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
