package ishare

import (
	"hash/maphash"
	"math"
)

// nameIndex resolves a live node's name to its ID without a copy of the
// name: a power-of-two table of ID+1 (0 is an empty slot), linearly probed
// from the name's maphash, each candidate confirmed against its entry's
// name. A delete shifts the rest of its probe run back, so churn leaves no
// tombstones, and the table doubles before it is more than half full: it
// never shrinks, so it holds at most max(8, 4×h) slots, h the most nodes
// live at once, and a probe run is short at any load it reaches. The zero
// value is an empty index.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32
	live  int
}

const minIndexSlots = 8

// home is the slot name's probe run starts at.
func (x *nameIndex) home(name string) int {
	return int(maphash.String(x.seed, name)) & (len(x.slots) - 1)
}

// find returns name's ID, math.MaxUint32 when no live node has it.
func (x *nameIndex) find(name string, entries []registryEntry) uint32 {
	if x.live == 0 {
		return math.MaxUint32
	}
	mask := len(x.slots) - 1
	for i := x.home(name); x.slots[i] != 0; i = (i + 1) & mask {
		if id := x.slots[i] - 1; entries[id].name() == name {
			return id
		}
	}
	return math.MaxUint32
}

// insert adds id, whose entry holds a name no live node has.
func (x *nameIndex) insert(id uint32, entries []registryEntry) {
	if 2*(x.live+1) > len(x.slots) {
		x.grow(entries)
	}
	x.place(id, entries)
	x.live++
}

// place puts id in the first empty slot of its name's probe run.
func (x *nameIndex) place(id uint32, entries []registryEntry) {
	mask := len(x.slots) - 1
	i := x.home(entries[id].name())
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = id + 1
}

// grow doubles the table (or makes the first) and re-places every ID.
func (x *nameIndex) grow(entries []registryEntry) {
	old := x.slots
	if old == nil {
		x.seed = maphash.MakeSeed()
	}
	x.slots = make([]uint32, max(minIndexSlots, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			x.place(s-1, entries)
		}
	}
}

// remove takes out id, which is in the index under its entry's name. Each
// later member of the probe run moves into the hole when its own run starts
// at or before the hole, cyclically, and the hole moves to where it was.
func (x *nameIndex) remove(id uint32, entries []registryEntry) {
	mask := len(x.slots) - 1
	hole := x.home(entries[id].name())
	for x.slots[hole] != id+1 {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The distance from its home to j exceeds that from the hole to j:
		// its run starts at or before the hole.
		if h := x.home(entries[x.slots[j]-1].name()); (j-h)&mask >= (j-hole)&mask {
			x.slots[hole], hole = x.slots[j], j
		}
	}
	x.slots[hole] = 0
	x.live--
}
