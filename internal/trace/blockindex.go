package trace

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// BlockIndex serves the Index point-query API — FirstOverlap, CountInWindow,
// AnyOverlap, NextEventAfter, LastEndBefore — straight off a v2 block file,
// without materializing a *Trace. Per-machine sub-indexes are built lazily
// on first touch: the block summaries prune the decode to the contiguous run
// of blocks that contain the machine (events are sorted by machine, so each
// machine's blocks are adjacent), which is what makes point queries over a
// large file cheap. Answers are identical to BuildIndex over the same events.
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

// block returns block i's decoded events, decoding on first touch and
// keeping the slice it decoded into: the buffer's event slice is handed to
// the cache and the next decode makes its own, so a block is inflated,
// decoded and stored once, with no second copy. Small machines share
// blocks and a big machine's tail can share the next one's, so without the
// cache a sweep over the fleet would inflate those once per machine in them.
// Cached blocks are only ever read — sub-indexes alias them.
func (ix *BlockIndex) block(i int) ([]Event, error) {
	if evs, ok := ix.blocks[i]; ok {
		return evs, nil
	}
	ix.decoded++
	ix.buf.events = nil
	events, err := ix.bf.DecodeBlock(i, &ix.buf)
	if err != nil {
		return nil, err
	}
	ix.blocks[i] = events
	return events, nil
}

// AppendEvents appends to dst every event matching f, in file order,
// decoding only the blocks the summaries cannot rule out. It reads through
// the index's block cache — a block it decodes is free for later point
// queries and vice versa.
func (ix *BlockIndex) AppendEvents(dst []Event, f ScanFilter) ([]Event, error) {
	for i, n := 0, ix.bf.NumBlocks(); i < n; i++ {
		if !f.AdmitBlock(ix.bf.Block(i)) {
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

// buildMachine decodes m's blocks into a new cached sub-index, with the
// hourly row.
func (ix *BlockIndex) buildMachine(m MachineID) *machinePointIndex {
	// Block MaxMachine is nondecreasing in file order (the event stream is
	// machine-sorted), so m's blocks are the run starting at the first
	// block whose MaxMachine reaches m; inside a block m's rows are one run
	// too, found by binary search. A machine that sits in one block is
	// indexed in place, as a capped read-only sub-slice of the cached block;
	// one straddling blocks (as the writer cuts, > ¾ BlockSize events) is copied.
	var evs []Event
	n := ix.bf.NumBlocks()
	first := sort.Search(n, func(i int) bool { return ix.bf.Block(i).MaxMachine >= m })
	for i := first; i < n && ix.bf.Block(i).MinMachine <= m; i++ {
		if ix.bf.Block(i).Count == 0 {
			continue
		}
		events, err := ix.block(i)
		if err != nil {
			ix.err = cmp.Or(ix.err, err)
			break
		}
		lo := sort.Search(len(events), func(j int) bool { return events[j].Machine >= m })
		hi := lo + sort.Search(len(events)-lo, func(j int) bool { return events[lo+j].Machine > m })
		if evs == nil {
			evs = events[lo:hi:hi]
		} else if lo < hi && len(evs) > 0 && eventCmp(events[lo], evs[len(evs)-1]) < 0 {
			ix.err = cmp.Or(ix.err, fmt.Errorf("trace: block %d: machine %d's events out of order with the block before", i, m))
			break
		} else {
			evs = append(evs, events[lo:hi]...)
		}
	}
	// File order within a machine is (Start, End), the layout's order: the
	// decoder holds each block to it, the seam check above each join.
	mi := newMachinePointIndex(evs)
	mi.buildHours(ix.bf.Header().Span)
	ix.cache[m] = mi
	return mi
}

// FirstOverlap matches Index.FirstOverlap.
func (ix *BlockIndex) FirstOverlap(m MachineID, w sim.Window) (Event, bool) {
	return ix.machine(m).firstOverlap(w)
}

// CountInWindow matches Index.CountInWindow.
func (ix *BlockIndex) CountInWindow(m MachineID, w sim.Window) int {
	return ix.machine(m).countInWindow(w)
}

// AnyOverlap matches Index.AnyOverlap.
func (ix *BlockIndex) AnyOverlap(m MachineID, w sim.Window) bool {
	return ix.machine(m).anyOverlap(w)
}

// NextEventAfter matches Index.NextEventAfter.
func (ix *BlockIndex) NextEventAfter(m MachineID, ts sim.Time) (Event, bool) {
	return ix.machine(m).nextEventAfter(ts)
}

// LastEndBefore matches Index.LastEndBefore.
func (ix *BlockIndex) LastEndBefore(m MachineID, t sim.Time) (sim.Time, bool) {
	return ix.machine(m).lastEndBefore(t)
}
