package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/availability"
	"repro/internal/sim"
)

// FGCB v2: a columnar block format for fleet-scale traces.
//
// Where v1 is a flat stream of row-oriented records, v2 groups events into
// blocks of at most BlockSize events, cut at machine boundaries (see Write),
// and stores each block's fields as separate columns, so
// like bytes sit together (machine-id deltas are almost all zero, state
// bytes repeat, float exponents cluster) and a per-block summary — min/max
// over start time, end time and machine id plus a state bitmask — lets
// readers skip whole blocks that cannot match a query predicate without
// decoding them.
//
//	magic   "FGCB" (4 bytes)
//	version uvarint (2)
//	header  zigzag(span.Start) zigzag(span.End) zigzag(startWeekday)
//	        uvarint(machines)                                — as in v1
//	record* one of:
//	  'B'   block: summary, codec byte, payload
//	  'D'   directory: every block's summary + offset, machine coverage
//	footer  8 bytes little-endian offset of the 'D' record, "FGC2"
//
// Block record after the 'B' tag:
//
//	uvarint(count) zigzag(minStart) zigzag(maxStart) zigzag(maxEnd)
//	uvarint(minMachine) uvarint(maxMachine) byte(stateMask)
//	byte(codec: 0 raw, 1 flate, 2 split) uvarint(rawLen) uvarint(payloadLen)
//	payload (payloadLen bytes)
//
// The payload is six concatenated columns over the block's events, which
// must be (machine, start, end)-sorted:
//
//	machine  uvarint delta from the previous event's machine (first event:
//	         delta from minMachine); non-negative because input is sorted
//	start    zigzag delta from the previous start of the same machine
//	         within the block (first occurrence: delta from minStart)
//	duration uvarint(end - start)
//	state    one byte per event
//	availMem zigzag varint per event
//	availCPU 8 bytes little-endian float64 bits per event
//
// Codec 0 stores the columns raw, codec 1 flates the whole payload. Codec 2
// ("split") exploits that the varint/byte columns compress several-fold
// while the float64 column is near-random bits that flate shrinks barely
// at all but pays full decode time for: the payload is the flated first
// five columns followed by the availCPU column raw (8*count trailing
// bytes). That is why availCPU is ordered last. rawLen is always the total
// decompressed column length.
//
// Every block decodes independently of every other block — the start-delta
// state is block-local — which is what makes parallel scans and predicate
// pushdown possible. The directory repeats the summaries with file offsets
// so an io.ReaderAt (or a memory-mapped region) can plan a pruned or
// parallel scan without touching any block; files cut before the directory
// (a crash mid-write) are recovered by walking the block headers instead,
// and reported Truncated.
const codecVersion2 = 2

// codecMagic opens a trace file of either version.
var codecMagic = [4]byte{'F', 'G', 'C', 'B'}

// colFooterMagic ends a complete v2 file, preceded by the directory offset.
var colFooterMagic = [4]byte{'F', 'G', 'C', '2'}

// Header carries the trace metadata that opens a trace file.
type Header struct {
	Span     sim.Window
	Calendar sim.Calendar
	Machines int
}

// maxMachines bounds the fleet a header may name. Readers size per-machine
// state from the header before any event is read — the analyzer 32 B of
// cause counts a machine, 32 MiB here — and fleets in this repository are
// at most 10³ machines.
const maxMachines = 1 << 20

// checkHeader holds a header to what a reader sizes from it. The writer
// calls it too, so nothing writes what cannot be read.
func checkHeader(h Header) error {
	if h.Machines < 0 || h.Machines > maxMachines {
		return fmt.Errorf("trace: header names %d machines, outside [0, %d]", h.Machines, maxMachines)
	}
	if h.Span.End < h.Span.Start {
		return fmt.Errorf("trace: inverted span %v in codec header", h.Span)
	}
	return nil
}

const (
	colTagBlock     = 'B'
	colTagDirectory = 'D'

	colCodecRaw   = 0
	colCodecFlate = 1
	colCodecSplit = 2

	colFooterLen = 12 // 8-byte directory offset + footer magic
)

// DefaultBlockSize is the events-per-block cut point used when a
// BlockWriterOptions leaves BlockSize zero: small enough that pruning has
// real resolution, with a summary (header plus directory entry, ≈ 72 B) of
// 0.02 byte/event in a full block, 0.04 in a testbed machine-year's ≈ 1 800.
const DefaultBlockSize = 4096

// storeFlateLevel deflates every compressed block, split or whole-payload:
// the fastest lazy-match level, smaller than BestSpeed and faster to inflate.
const storeFlateLevel = 2

// Compression selects how block payloads are stored.
type Compression int

const (
	// CompressionAuto deflates each block's varint/byte columns, keeps the
	// float column raw (the split codec), and falls back to a fully raw
	// block when flate does not pay — the default, and what keeps v2 files
	// no larger than v1 on any input while scans stay fast.
	CompressionAuto Compression = iota
	// CompressionNone always stores raw payloads (fastest scans).
	CompressionNone
	// CompressionFlate always deflates the whole payload, float column
	// included (smallest files, slowest scans).
	CompressionFlate
)

// BlockMeta is one block's summary: everything a reader needs to decide
// whether the block can contain events matching a predicate, plus where the
// block lives in the file.
type BlockMeta struct {
	// Offset is the file position of the block's 'B' tag; StoredLen the
	// total record length including the tag, so Offset+StoredLen is the
	// next record.
	Offset    int64
	StoredLen int64
	// Count is the number of events in the block (zero-length blocks are
	// legal; an empty file closed cleanly has none at all).
	Count int
	// MinStart/MaxStart bound event start times, MaxEnd bounds end times
	// (MaxStart <= MaxEnd always, since events end at or after they start).
	MinStart sim.Time
	MaxStart sim.Time
	MaxEnd   sim.Time
	// MinMachine/MaxMachine bound the machine ids (inclusive).
	MinMachine MachineID
	MaxMachine MachineID
	// StateMask has bit int(s) set for every state s present.
	StateMask byte
}

// overlapsWindow reports whether any event in the block could overlap w
// under the AnyOverlap predicate (e.Start < w.End && e.End > w.Start).
func (m BlockMeta) overlapsWindow(w sim.Window) bool {
	return m.Count > 0 && m.MinStart < w.End && m.MaxEnd > w.Start
}

// startsInWindow reports whether any event in the block could start in
// [w.Start, w.End).
func (m BlockMeta) startsInWindow(w sim.Window) bool {
	return m.Count > 0 && m.MinStart < w.End && m.MaxStart >= w.Start
}

// hasMachine reports whether machine id could appear in the block.
func (m BlockMeta) hasMachine(id MachineID) bool {
	return m.Count > 0 && id >= m.MinMachine && id <= m.MaxMachine
}

// stateBit returns the StateMask bit for a state (states are 1..5, so they
// always fit; anything out of range is rejected long before masking).
func stateBit(s availability.State) byte { return 1 << (uint(s) & 7) }

// BlockWriterOptions tunes a BlockWriter. The zero value means
// DefaultBlockSize events per block and CompressionAuto.
type BlockWriterOptions struct {
	BlockSize   int
	Compression Compression
}

// BlockWriter writes a v2 columnar stream. Events must arrive in
// (machine, start, end) order — the order Trace.Sort produces and sharded
// runs emit — and Close writes the directory and footer that turn the
// stream into a seekable, pruneable file. A crash before Close leaves the
// complete blocks recoverable.
type BlockWriter struct {
	w    *bufio.Writer
	opts BlockWriterOptions

	header Header
	lo, hi MachineID // machine coverage recorded in the directory

	pending []Event
	metas   []BlockMeta
	off     int64 // bytes emitted so far

	last   Event
	lastOK bool

	buf    []byte // scratch: packed columns
	cbuf   bytes.Buffer
	flatew *flate.Writer

	err    error
	closed bool
}

// NewBlockWriter writes the v2 magic and header to w and returns a writer
// cutting blocks per opts (nil = defaults). Coverage defaults to the full
// fleet [0, h.Machines); shard writers narrow it with SetCoverage.
func NewBlockWriter(w io.Writer, h Header, opts *BlockWriterOptions) (*BlockWriter, error) {
	if err := checkHeader(h); err != nil {
		return nil, err
	}
	o := BlockWriterOptions{}
	if opts != nil {
		o = *opts
	}
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	bw := &BlockWriter{
		w:      bufio.NewWriter(w),
		opts:   o,
		header: h,
		lo:     0,
		hi:     MachineID(h.Machines),
	}
	var hdr []byte
	hdr = append(hdr, codecMagic[:]...)
	hdr = binary.AppendUvarint(hdr, codecVersion2)
	hdr = binary.AppendVarint(hdr, int64(h.Span.Start))
	hdr = binary.AppendVarint(hdr, int64(h.Span.End))
	hdr = binary.AppendVarint(hdr, int64(h.Calendar.StartWeekday))
	hdr = binary.AppendUvarint(hdr, uint64(h.Machines))
	if _, err := bw.w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: writing v2 header: %w", err)
	}
	bw.off = int64(len(hdr))
	return bw, nil
}

// SetCoverage records the machine range [lo, hi) this file is responsible
// for — including machines with no events — in the directory. Parallel
// analyzers use it to credit idle machines to exactly one shard. It may be
// called any time before Close.
func (bw *BlockWriter) SetCoverage(lo, hi MachineID) {
	bw.lo, bw.hi = lo, hi
}

// Write appends one event. Input must be (machine, start, end)-sorted;
// out-of-order events are rejected, because block summaries and parallel
// machine-chunking rely on the order.
func (bw *BlockWriter) Write(ev Event) error {
	if bw.err != nil {
		return bw.err
	}
	if err := ev.Validate(); err != nil {
		bw.err = err
		return err
	}
	if math.IsNaN(ev.AvailCPU) || math.IsInf(ev.AvailCPU, 0) {
		bw.err = fmt.Errorf("trace: non-finite avail cpu %v on machine %d", ev.AvailCPU, ev.Machine)
		return bw.err
	}
	if ev.Machine < 0 {
		bw.err = fmt.Errorf("trace: negative machine id %d", ev.Machine)
		return bw.err
	}
	if bw.lastOK && eventCmp(ev, bw.last) < 0 {
		bw.err = fmt.Errorf("trace: v2 writer needs (machine, start, end)-sorted input; got %+v after %+v", ev, bw.last)
		return bw.err
	}
	// A new machine starts a new block once this one is a quarter full.
	if n := len(bw.pending); n > 0 && n >= bw.opts.BlockSize/4 && ev.Machine != bw.last.Machine {
		if err := bw.flushBlock(); err != nil {
			return err
		}
	}
	bw.last, bw.lastOK = ev, true
	bw.pending = append(bw.pending, ev)
	if len(bw.pending) >= bw.opts.BlockSize {
		return bw.flushBlock()
	}
	return nil
}

// summarize computes the block summary over sorted events.
func summarize(events []Event) BlockMeta {
	m := BlockMeta{Count: len(events)}
	if len(events) == 0 {
		return m
	}
	m.MinMachine = events[0].Machine
	m.MaxMachine = events[len(events)-1].Machine
	m.MinStart, m.MaxStart, m.MaxEnd = events[0].Start, events[0].Start, events[0].End
	for _, e := range events {
		if e.Start < m.MinStart {
			m.MinStart = e.Start
		}
		if e.Start > m.MaxStart {
			m.MaxStart = e.Start
		}
		if e.End > m.MaxEnd {
			m.MaxEnd = e.End
		}
		m.StateMask |= stateBit(e.State)
	}
	return m
}

// packColumns encodes sorted events into the six concatenated columns,
// reusing buf.
func packColumns(buf []byte, events []Event, meta BlockMeta) []byte {
	b := buf[:0]
	// Machine column.
	cur := meta.MinMachine
	for _, e := range events {
		b = binary.AppendUvarint(b, uint64(e.Machine-cur))
		cur = e.Machine
	}
	// Start column (block-local per-machine deltas). Events are machine-
	// sorted, so each machine's events form one contiguous run and "previous
	// start of the same machine" is simply the previous event's start when
	// the machine repeats — no per-machine state needed.
	for i, e := range events {
		p := meta.MinStart
		if i > 0 && events[i-1].Machine == e.Machine {
			p = events[i-1].Start
		}
		b = binary.AppendVarint(b, int64(e.Start-p))
	}
	// Duration column.
	for _, e := range events {
		b = binary.AppendUvarint(b, uint64(e.End-e.Start))
	}
	// State column.
	for _, e := range events {
		b = append(b, byte(e.State))
	}
	// AvailMem column.
	for _, e := range events {
		b = binary.AppendVarint(b, e.AvailMem)
	}
	// AvailCPU column — last, so the split codec can store it raw as the
	// payload tail.
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.AvailCPU))
	}
	return b
}

// flushBlock encodes and writes the pending events as one block.
func (bw *BlockWriter) flushBlock() error {
	events := bw.pending
	bw.pending = bw.pending[:0]
	meta := summarize(events)
	bw.buf = packColumns(bw.buf, events, meta)
	raw := bw.buf

	codec := byte(colCodecRaw)
	payload := raw
	if bw.opts.Compression != CompressionNone && len(raw) > 0 {
		// CompressionFlate deflates the whole payload; CompressionAuto
		// deflates only the varint/byte columns and keeps the near-random
		// float64 tail raw (the split codec), falling back to a fully raw
		// block when even those columns do not shrink.
		head := raw
		if bw.opts.Compression == CompressionAuto {
			head = raw[:len(raw)-8*len(events)]
		}
		bw.cbuf.Reset()
		if bw.flatew == nil {
			fw, err := flate.NewWriter(&bw.cbuf, storeFlateLevel)
			if err != nil {
				bw.err = err
				return err
			}
			bw.flatew = fw
		} else {
			bw.flatew.Reset(&bw.cbuf)
		}
		if _, err := bw.flatew.Write(head); err != nil {
			bw.err = err
			return err
		}
		if err := bw.flatew.Close(); err != nil {
			bw.err = err
			return err
		}
		if bw.opts.Compression == CompressionFlate {
			codec = colCodecFlate
			payload = bw.cbuf.Bytes()
		} else if bw.cbuf.Len() < len(head) {
			codec = colCodecSplit
			bw.cbuf.Write(raw[len(head):])
			payload = bw.cbuf.Bytes()
		}
	}

	var hdr []byte
	hdr = append(hdr, colTagBlock)
	hdr = binary.AppendUvarint(hdr, uint64(meta.Count))
	hdr = binary.AppendVarint(hdr, int64(meta.MinStart))
	hdr = binary.AppendVarint(hdr, int64(meta.MaxStart))
	hdr = binary.AppendVarint(hdr, int64(meta.MaxEnd))
	hdr = binary.AppendUvarint(hdr, uint64(meta.MinMachine))
	hdr = binary.AppendUvarint(hdr, uint64(meta.MaxMachine))
	hdr = append(hdr, meta.StateMask, codec)
	hdr = binary.AppendUvarint(hdr, uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))

	meta.Offset = bw.off
	meta.StoredLen = int64(len(hdr) + len(payload))
	if _, err := bw.w.Write(hdr); err != nil {
		bw.err = fmt.Errorf("trace: writing block header: %w", err)
		return bw.err
	}
	if _, err := bw.w.Write(payload); err != nil {
		bw.err = fmt.Errorf("trace: writing block payload: %w", err)
		return bw.err
	}
	bw.off += meta.StoredLen
	bw.metas = append(bw.metas, meta)
	return nil
}

// Close flushes the last block and writes the directory and footer. The
// writer is unusable afterwards.
func (bw *BlockWriter) Close() error {
	if bw.err != nil {
		return bw.err
	}
	if bw.closed {
		return fmt.Errorf("trace: block writer closed twice")
	}
	if len(bw.pending) > 0 {
		if err := bw.flushBlock(); err != nil {
			return err
		}
	}
	dirOff := bw.off
	var d []byte
	d = append(d, colTagDirectory)
	d = binary.AppendUvarint(d, uint64(len(bw.metas)))
	prevOff := int64(0)
	for _, m := range bw.metas {
		d = binary.AppendUvarint(d, uint64(m.Offset-prevOff))
		prevOff = m.Offset
		d = binary.AppendUvarint(d, uint64(m.StoredLen))
		d = binary.AppendUvarint(d, uint64(m.Count))
		d = binary.AppendVarint(d, int64(m.MinStart))
		d = binary.AppendVarint(d, int64(m.MaxStart))
		d = binary.AppendVarint(d, int64(m.MaxEnd))
		d = binary.AppendUvarint(d, uint64(m.MinMachine))
		d = binary.AppendUvarint(d, uint64(m.MaxMachine))
		d = append(d, m.StateMask)
	}
	d = binary.AppendVarint(d, int64(bw.lo))
	d = binary.AppendVarint(d, int64(bw.hi))
	d = binary.LittleEndian.AppendUint64(d, uint64(dirOff))
	d = append(d, colFooterMagic[:]...)
	if _, err := bw.w.Write(d); err != nil {
		bw.err = fmt.Errorf("trace: writing directory: %w", err)
		return bw.err
	}
	bw.off += int64(len(d))
	if err := bw.w.Flush(); err != nil {
		bw.err = err
		return err
	}
	bw.closed = true
	bw.err = fmt.Errorf("trace: block writer closed")
	return nil
}

// WriteBlocks writes the whole trace in the v2 columnar codec (nil opts =
// defaults). Events are encoded in (machine, start, end) order regardless
// of their order in t; t itself is not mutated.
func (t *Trace) WriteBlocks(w io.Writer, opts *BlockWriterOptions) error {
	bw, err := NewBlockWriter(w, Header{Span: t.Span, Calendar: t.Calendar, Machines: t.Machines}, opts)
	if err != nil {
		return err
	}
	events := t.Events
	if !eventsSorted(events) {
		c := t.Clone()
		c.Sort()
		events = c.Events
	}
	for _, e := range events {
		if err := bw.Write(e); err != nil {
			return err
		}
	}
	return bw.Close()
}

// eventsSorted reports whether events are already (machine, start, end)
// ordered.
func eventsSorted(events []Event) bool {
	for i := 1; i < len(events); i++ {
		if eventCmp(events[i], events[i-1]) < 0 {
			return false
		}
	}
	return true
}

// eventCmp orders events by (machine, start, end) — the Trace.Sort order.
func eventCmp(a, b Event) int {
	if a.Machine != b.Machine {
		return cmp.Compare(a.Machine, b.Machine)
	}
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	return cmp.Compare(a.End, b.End)
}

// decodeBlockHeader parses a block record header from b (positioned just
// after the 'B' tag), returning the summary (offsets unset), the codec
// byte, the raw and stored payload lengths and the header length consumed.
func decodeBlockHeader(b []byte) (meta BlockMeta, codec byte, rawLen, payloadLen uint64, n int, err error) {
	read := func() (uint64, bool) {
		v, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return 0, false
		}
		n += k
		return v, true
	}
	readS := func() (int64, bool) {
		v, k := binary.Varint(b[n:])
		if k <= 0 {
			return 0, false
		}
		n += k
		return v, true
	}
	count, ok := read()
	if !ok || count > math.MaxInt32 {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: bad block count")
	}
	minStart, ok1 := readS()
	maxStart, ok2 := readS()
	maxEnd, ok3 := readS()
	minM, ok4 := read()
	maxM, ok5 := read()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || minM > math.MaxInt32 || maxM > math.MaxInt32 {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: bad block summary")
	}
	if n+2 > len(b) {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: short block header")
	}
	mask := b[n]
	codec = b[n+1]
	n += 2
	rawLen, ok6 := read()
	payloadLen, ok7 := read()
	if !ok6 || !ok7 {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: bad block lengths")
	}
	if codec != colCodecRaw && codec != colCodecFlate && codec != colCodecSplit {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: unknown block codec %d", codec)
	}
	if codec == colCodecRaw && rawLen != payloadLen {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: raw block with mismatched lengths %d != %d", rawLen, payloadLen)
	}
	if codec == colCodecSplit && (rawLen < 8*count || payloadLen < 8*count) {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: split block shorter than its float column")
	}
	const maxBlockBytes = 1 << 30
	if rawLen > maxBlockBytes || payloadLen > maxBlockBytes {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: implausible block size")
	}
	// Every event costs at least 13 payload bytes (one per varint column,
	// one state byte, eight float bytes), so a count out of proportion to
	// rawLen is hostile input, caught before allocating count events.
	if count > rawLen/13+1 {
		return meta, 0, 0, 0, n, fmt.Errorf("trace: block count %d implausible for %d payload bytes", count, rawLen)
	}
	meta = BlockMeta{
		Count:      int(count),
		MinStart:   sim.Time(minStart),
		MaxStart:   sim.Time(maxStart),
		MaxEnd:     sim.Time(maxEnd),
		MinMachine: MachineID(minM),
		MaxMachine: MachineID(maxM),
		StateMask:  mask,
	}
	return meta, codec, rawLen, payloadLen, n, nil
}

// decodeColumns unpacks a raw (decompressed) payload of count events into
// out, mirroring packColumns, holding every event to the header and to
// itself: machine ids in range, finite floats, no time overflow.
func decodeColumns(raw []byte, meta BlockMeta, h Header, out []Event) ([]Event, error) {
	n, count := 0, meta.Count
	if cap(out) < count {
		out = make([]Event, count)
	}
	out = out[:count]
	// Machine column.
	cur := int64(meta.MinMachine)
	for i := range out {
		d, k := binary.Uvarint(raw[n:])
		if k <= 0 {
			return nil, errColumnVarint
		}
		n += k
		if d > math.MaxInt32 || cur+int64(d) > int64(meta.MaxMachine) {
			return nil, fmt.Errorf("trace: block machine id %d outside summary", uint64(cur)+d)
		}
		cur += int64(d)
		if h.Machines > 0 && cur >= int64(h.Machines) {
			return nil, fmt.Errorf("trace: event machine %d outside 0..%d", cur, h.Machines-1)
		}
		out[i].Machine = MachineID(cur)
	}
	// Start column. Machine deltas are unsigned, so the ids just decoded are
	// nondecreasing: each machine's events are one contiguous run, and the
	// previous start of the same machine is the previous event's start.
	for i := range out {
		d, k := binary.Varint(raw[n:])
		if k <= 0 {
			return nil, errColumnVarint
		}
		n += k
		p := meta.MinStart
		if i > 0 && out[i-1].Machine == out[i].Machine {
			p = out[i-1].Start
		}
		out[i].Start = p + sim.Time(d)
	}
	// Duration column.
	for i := range out {
		d, k := binary.Uvarint(raw[n:])
		if k <= 0 {
			return nil, errColumnVarint
		}
		n += k
		if d > math.MaxInt64 {
			return nil, fmt.Errorf("trace: implausible event duration %d", d)
		}
		end := out[i].Start + sim.Time(d)
		if end < out[i].Start {
			return nil, fmt.Errorf("trace: event time overflow at start %v", out[i].Start)
		}
		out[i].End = end
	}
	// State column.
	if n+count > len(raw) {
		return nil, fmt.Errorf("trace: truncated state column")
	}
	for i := range out {
		out[i].State = availability.State(raw[n+i])
	}
	n += count
	// AvailMem column.
	for i := range out {
		v, k := binary.Varint(raw[n:])
		if k <= 0 {
			return nil, errColumnVarint
		}
		n += k
		out[i].AvailMem = v
	}
	// AvailCPU column (last — raw tail under the split codec).
	if n+8*count > len(raw) {
		return nil, fmt.Errorf("trace: truncated avail-cpu column")
	}
	for i := range out {
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[n+8*i:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("trace: non-finite avail cpu on machine %d", out[i].Machine)
		}
		out[i].AvailCPU = f
	}
	n += 8 * count
	if n != len(raw) {
		return nil, fmt.Errorf("trace: %d trailing bytes after block columns", len(raw)-n)
	}
	// Validate and re-check sortedness: summaries and chunk planning assume
	// it, so a file violating it is corrupt, not merely unsorted. The pass
	// reads through pointers — Event.Validate and eventCmp take their
	// 48-byte events by value — and calls Validate only for its error.
	for i := range out {
		e, p := &out[i], &out[max(i-1, 0)] // the first event is its own predecessor: never out of order
		if !e.valid() {
			return nil, e.Validate()
		}
		if e.Machine < p.Machine || e.Machine == p.Machine && (e.Start < p.Start || e.Start == p.Start && e.End < p.End) {
			return nil, fmt.Errorf("trace: block events out of order at %d", i)
		}
	}
	return out, nil
}

// errColumnVarint reports a varint column that ends, or overflows, early.
var errColumnVarint = errors.New("trace: truncated column varint")

// inflater turns block payloads into their raw column bytes, reusing from
// block to block what that takes: the scratch the columns inflate into, and
// one flate reader (≈ 40 KB of window and tables) built on the first
// compressed block and Reset onto each later one. The zero value is ready
// to use; an inflater belongs to one goroutine.
type inflater struct {
	raw   []byte
	src   bytes.Reader
	fr    io.ReadCloser // over src; nil until the first compressed block
	probe [1]byte       // where into looks for one byte too many
}

// into decompresses payload into dst, which must be exactly the declared
// raw length — shorter or longer streams are corruption.
func (z *inflater) into(payload, dst []byte) error {
	z.src.Reset(payload)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return fmt.Errorf("trace: inflating block: %w", err)
	}
	if _, err := io.ReadFull(z.fr, dst); err != nil {
		return fmt.Errorf("trace: inflating block: %w", err)
	}
	if k, _ := z.fr.Read(z.probe[:]); k != 0 {
		return fmt.Errorf("trace: block inflates past its declared size")
	}
	if err := z.fr.Close(); err != nil {
		return fmt.Errorf("trace: inflating block: %w", err)
	}
	return nil
}

// decodePayload turns a block payload into the contiguous raw column bytes
// per its codec: the payload itself for a raw block, z's scratch (valid
// until the next call) otherwise.
func (z *inflater) decodePayload(codec byte, payload []byte, rawLen, count int) ([]byte, error) {
	// cpuN is the float column stored raw at the payload's tail: all of it
	// under the split codec (the header decoder guarantees both lengths
	// cover 8*count), none of it when the whole payload is flated.
	cpuN := 0
	switch codec {
	case colCodecRaw:
		return payload, nil
	case colCodecFlate:
	case colCodecSplit:
		cpuN = 8 * count
	default:
		return nil, fmt.Errorf("trace: unknown block codec %d", codec)
	}
	if cap(z.raw) < rawLen {
		z.raw = make([]byte, rawLen)
	}
	dst := z.raw[:rawLen]
	if err := z.into(payload[:len(payload)-cpuN], dst[:rawLen-cpuN]); err != nil {
		return nil, err
	}
	copy(dst[rawLen-cpuN:], payload[len(payload)-cpuN:])
	return dst, nil
}
