package trace

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// BlockIndex serves the Index point-query API — FirstOverlap, CountInWindow,
// OverlapExists/AnyOverlap, NextEventAfter, LastEndBefore — straight off a
// v2 block file, without materializing a *Trace. Per-machine sub-indexes are
// built lazily on first touch: the block summaries prune the decode to the
// contiguous run of blocks that contain the machine (events are sorted by
// machine, so each machine's blocks are adjacent), which is what makes point
// queries over a large file cheap. Answers are identical to BuildIndex over
// the same events.
//
// BlockIndex is not safe for concurrent use; build one per goroutine (they
// can share the BlockFile, which is).
type BlockIndex struct {
	bf      *BlockFile
	buf     BlockBuf
	cache   map[MachineID]*machinePointIndex
	blocks  map[int][]Event
	decoded int
	err     error

	// The previous query's machine and its sub-index: queries arrive in
	// long same-machine runs (an evaluation walks one machine's windows
	// before the next), and a repeat skips the map lookup.
	lastM MachineID
	last  *machinePointIndex
}

// machinePointIndex mirrors Index's per-machine state, plus the machine's
// row of the hourly-count prefix matrix so hour-aligned window counts are
// O(1) — the same fast path Evaluate gets from Trace.BuildHourlyCounts.
type machinePointIndex struct {
	byStart []Event    // sorted by (Start, End) — file order
	maxEnd  []sim.Time // prefix maxima of End over byStart
	byEnd   []sim.Time // event End times, sorted
	maxDur  sim.Time
	loHour  int64
	hours   []int32 // hours[h] counts starts before hour loHour+h
}

// NewBlockIndex creates a lazy point-query index over bf.
func NewBlockIndex(bf *BlockFile) *BlockIndex {
	return &BlockIndex{
		bf:     bf,
		cache:  make(map[MachineID]*machinePointIndex),
		blocks: make(map[int][]Event),
	}
}

// BlocksDecoded returns how many block decodes all queries so far have cost
// — the quantity the summaries exist to minimize.
func (ix *BlockIndex) BlocksDecoded() int { return ix.decoded }

// Err returns the first block decode error encountered, if any. Queries on
// a machine whose blocks failed to decode answer from the events decoded
// before the failure.
func (ix *BlockIndex) Err() error { return ix.err }

// block returns block i's decoded events, decoding (and caching a copy) on
// first touch. Neighboring machines share blocks, so without the cache a
// sweep over the fleet would inflate every block once per machine in it;
// with it each block pays its decode exactly once per index lifetime. The
// copy is required because DecodeBlock reuses the scratch buffer.
func (ix *BlockIndex) block(i int) ([]Event, error) {
	if evs, ok := ix.blocks[i]; ok {
		return evs, nil
	}
	ix.decoded++
	events, err := ix.bf.DecodeBlock(i, &ix.buf)
	if err != nil {
		return nil, err
	}
	cp := make([]Event, len(events))
	copy(cp, events)
	ix.blocks[i] = cp
	return cp, nil
}

// Scan streams every event matching f through visit in file order, exactly
// like BlockFile.Scan, but reads through the index's block cache — a block
// the scan decodes is free for later point queries and vice versa. decoded
// counts the admitted blocks (cache hits included), skipped the pruned ones.
func (ix *BlockIndex) Scan(f ScanFilter, visit func(Event) error) (decoded, skipped int, err error) {
	n := ix.bf.NumBlocks()
	for i := 0; i < n; i++ {
		if !f.AdmitBlock(ix.bf.Block(i)) {
			skipped++
			continue
		}
		decoded++
		events, err := ix.block(i)
		if err != nil {
			return decoded, skipped, err
		}
		for _, e := range events {
			if !f.AdmitEvent(e) {
				continue
			}
			if err := visit(e); err != nil {
				return decoded, skipped, err
			}
		}
	}
	return decoded, skipped, nil
}

// machine returns m's sub-index, building it on first use.
func (ix *BlockIndex) machine(m MachineID) *machinePointIndex {
	if ix.last != nil && ix.lastM == m {
		return ix.last
	}
	mi, ok := ix.cache[m]
	if !ok {
		mi = ix.buildMachine(m)
	}
	ix.lastM, ix.last = m, mi
	return mi
}

// buildMachine decodes m's blocks into a new cached sub-index.
func (ix *BlockIndex) buildMachine(m MachineID) *machinePointIndex {
	mi := &machinePointIndex{}
	ix.cache[m] = mi
	// Block MaxMachine is nondecreasing in file order (the event stream is
	// machine-sorted), so m's blocks are the run starting at the first
	// block whose MaxMachine reaches m.
	n := ix.bf.NumBlocks()
	first := sort.Search(n, func(i int) bool { return ix.bf.Block(i).MaxMachine >= m })
	for i := first; i < n && ix.bf.Block(i).MinMachine <= m; i++ {
		if ix.bf.Block(i).Count == 0 {
			continue
		}
		events, err := ix.block(i)
		if err != nil {
			if ix.err == nil {
				ix.err = err
			}
			break
		}
		for _, e := range events {
			if e.Machine == m {
				mi.byStart = append(mi.byStart, e)
			}
		}
	}
	mi.maxEnd = make([]sim.Time, len(mi.byStart))
	mi.byEnd = make([]sim.Time, len(mi.byStart))
	var max sim.Time
	for i, e := range mi.byStart {
		if i == 0 || e.End > max {
			max = e.End
		}
		mi.maxEnd[i] = max
		mi.byEnd[i] = e.End
		if d := e.End - e.Start; d > mi.maxDur {
			mi.maxDur = d
		}
	}
	sort.Slice(mi.byEnd, func(i, j int) bool { return mi.byEnd[i] < mi.byEnd[j] })

	// Hourly prefix row, covering the span and every event start (the same
	// hour range BuildHourlyCounts would give this machine).
	span := ix.bf.Header().Span
	lo := sim.FloorHour(span.Start)
	hi := sim.FloorHour(span.End-1) + 1
	if span.End <= span.Start {
		hi = lo
	}
	for _, e := range mi.byStart {
		if h := sim.FloorHour(e.Start); h < lo {
			lo = h
		} else if h >= hi {
			hi = h + 1
		}
	}
	mi.loHour = lo
	mi.hours = make([]int32, int(hi-lo)+1)
	for _, e := range mi.byStart {
		mi.hours[sim.FloorHour(e.Start)-lo+1]++
	}
	for h := 1; h < len(mi.hours); h++ {
		mi.hours[h] += mi.hours[h-1]
	}
	return mi
}

// FirstOverlap matches Index.FirstOverlap: the event of machine m whose
// overlap with w begins earliest, preferring one already open at w.Start.
func (ix *BlockIndex) FirstOverlap(m MachineID, w sim.Window) (Event, bool) {
	mi := ix.machine(m)
	evs := mi.byStart
	first := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.Start })
	horizon := w.Start - mi.maxDur
	for j := first - 1; j >= 0 && evs[j].Start >= horizon; j-- {
		if evs[j].End > w.Start {
			return evs[j], true
		}
	}
	for j := first; j < len(evs) && evs[j].Start < w.End; j++ {
		if evs[j].End > w.Start {
			return evs[j], true
		}
	}
	return Event{}, false
}

// CountInWindow matches Index.CountInWindow: events of m starting in
// [w.Start, w.End). Hour-aligned windows are answered from the prefix row
// in O(1); others fall back to the binary searches.
func (ix *BlockIndex) CountInWindow(m MachineID, w sim.Window) int {
	mi := ix.machine(m)
	if w.Start%time.Hour == 0 && w.End%time.Hour == 0 {
		a := sim.FloorHour(w.Start) - mi.loHour
		b := sim.FloorHour(w.End) - mi.loHour
		n := int64(len(mi.hours) - 1)
		a = min(max(a, 0), n)
		b = min(max(b, a), n)
		return int(mi.hours[b] - mi.hours[a])
	}
	evs := mi.byStart
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.Start })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= w.End })
	return hi - lo
}

// OverlapExists matches Index.OverlapExists.
func (ix *BlockIndex) OverlapExists(m MachineID, w sim.Window) bool {
	mi := ix.machine(m)
	k := sort.Search(len(mi.byStart), func(i int) bool { return mi.byStart[i].Start >= w.End })
	if k == 0 {
		return false
	}
	return mi.maxEnd[k-1] > w.Start
}

// AnyOverlap is OverlapExists under the name Index uses.
func (ix *BlockIndex) AnyOverlap(m MachineID, w sim.Window) bool {
	return ix.OverlapExists(m, w)
}

// NextEventAfter matches Index.NextEventAfter.
func (ix *BlockIndex) NextEventAfter(m MachineID, ts sim.Time) (Event, bool) {
	evs := ix.machine(m).byStart
	k := sort.Search(len(evs), func(i int) bool { return evs[i].Start >= ts })
	if k == len(evs) {
		return Event{}, false
	}
	return evs[k], true
}

// LastEndBefore matches Index.LastEndBefore.
func (ix *BlockIndex) LastEndBefore(m MachineID, t sim.Time) (sim.Time, bool) {
	ends := ix.machine(m).byEnd
	k := sort.Search(len(ends), func(i int) bool { return ends[i] > t })
	if k == 0 {
		return 0, false
	}
	return ends[k-1], true
}
