package trace

import (
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

// buildMachine decodes m's blocks into a new cached sub-index, with the
// hourly row.
func (ix *BlockIndex) buildMachine(m MachineID) *machinePointIndex {
	// Block MaxMachine is nondecreasing in file order (the event stream is
	// machine-sorted), so m's blocks are the run starting at the first
	// block whose MaxMachine reaches m.
	var evs []Event
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
				evs = append(evs, e)
			}
		}
	}
	// File order within a machine is (Start, End), the layout's order.
	mi := newMachinePointIndex(evs)
	mi.buildHours(ix.bf.Header().Span)
	ix.cache[m] = mi
	return mi
}

// FirstOverlap matches Index.FirstOverlap.
func (ix *BlockIndex) FirstOverlap(m MachineID, w sim.Window) (Event, bool) {
	return ix.machine(m).firstOverlap(w)
}

// CountInWindow matches Index.CountInWindow; hour-aligned windows are
// answered from the hourly row in O(1).
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
