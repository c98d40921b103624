package trace

import (
	"bytes"
	"encoding/binary"
)

// RandomTrace hands the in-package fixture to forged_test.go, which is
// package trace_test because it imports internal/predict, and predict
// imports this package.
var RandomTrace = randomTrace

// MaxEventsHint is the cap on capacities taken from a block directory.
const MaxEventsHint = maxEventsHint

// ForgeDirectoryCounts returns a copy of the cleanly closed v2 file b whose
// directory claims count events for every block. Blocks, offsets, summaries,
// coverage and footer are as written, so the file opens on its directory —
// loadDirectory has nothing to hold a count against — and only decoding a
// block meets the block's own header. It encodes the directory as
// BlockWriter.Close does; if the two drift the forgery stops opening, which
// its callers check.
func ForgeDirectoryCounts(b []byte, count int) []byte {
	bf, err := NewBlockFileBytes(b)
	if err != nil || bf.Truncated() {
		panic("trace: ForgeDirectoryCounts needs a cleanly closed v2 file")
	}
	dirOff := binary.LittleEndian.Uint64(b[len(b)-colFooterLen:])
	d := append(bytes.Clone(b[:dirOff]), colTagDirectory)
	d = binary.AppendUvarint(d, uint64(len(bf.blocks)))
	prev := int64(0)
	for _, m := range bf.blocks {
		d = binary.AppendUvarint(d, uint64(m.Offset-prev))
		prev = m.Offset
		d = binary.AppendUvarint(d, uint64(m.StoredLen))
		d = binary.AppendUvarint(d, uint64(count))
		d = binary.AppendVarint(d, int64(m.MinStart))
		d = binary.AppendVarint(d, int64(m.MaxStart))
		d = binary.AppendVarint(d, int64(m.MaxEnd))
		d = binary.AppendUvarint(d, uint64(m.MinMachine))
		d = binary.AppendUvarint(d, uint64(m.MaxMachine))
		d = append(d, m.StateMask)
	}
	d = binary.AppendVarint(d, int64(bf.lo))
	d = binary.AppendVarint(d, int64(bf.hi))
	d = binary.LittleEndian.AppendUint64(d, dirOff)
	return append(d, colFooterMagic[:]...)
}
