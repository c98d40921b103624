package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/par"
	"repro/internal/sim"
)

// ErrTruncated reports input cut short — the signature of a shard cut by a
// crash. A BlockFile cut inside its header fails to open with it; one cut
// past the header opens Truncated with its complete blocks, and every
// loader of a whole trace (ReadFile, ReadBlocks, AnalyzeBlockFiles) refuses
// it with an error wrapping it, so errors.Is tells truncation from
// corruption.
var ErrTruncated = errors.New("trace: input truncated")

// errNoDirectory is how a loader refuses a Truncated file: its visible
// prefix would otherwise pass for the whole trace.
var errNoDirectory = fmt.Errorf("trace: no block directory (file cut short or never closed): %w", ErrTruncated)

// BlockFile is random access over a v2 columnar trace file — the one way a
// trace file is read: the header, the block directory (summaries + offsets)
// and on-demand block decoding, over either a memory-mapped region
// (zero-copy: columns parse straight out of the mapping) or any io.ReaderAt
// (plain pread fallback). A file whose directory is missing — cut by a crash
// or never closed — is recovered by walking the block headers; the complete
// blocks stay readable and Truncated reports the salvage.
//
// BlockFile is immutable after construction and safe for concurrent
// readers; per-call decode state lives in BlockBuf.
type BlockFile struct {
	r    io.ReaderAt
	data []byte // non-nil when the whole file is in (mapped) memory

	size      int64
	header    Header
	blocks    []BlockMeta
	lo, hi    MachineID
	truncated bool

	closers []io.Closer
}

// BlockBuf holds what one decoding goroutine reuses from block to block:
// the bytes read off a file that is not in memory, the inflater (its flate
// reader and the raw columns it fills) and the decoded events. Once each
// has grown to the largest block, DecodeBlock allocates nothing of its own
// (compress/flate still makes tables for Huffman codes past 9 bits). The
// zero value is ready to use; do not share one across goroutines.
type BlockBuf struct {
	payload []byte
	z       inflater
	events  []Event
}

// maxEventsHint caps every capacity taken from the directory's event counts.
// The directory is outside input, and only DecodeBlock holds a count to its
// payload: a forged one may cost an allocation of this many events and no
// more, and append grows past it for an honest file that large.
const maxEventsHint = 1 << 20

// NewBlockFileBytes opens a v2 file held in memory (a mapping or a test
// buffer). The returned BlockFile decodes blocks without copying payloads.
func NewBlockFileBytes(b []byte) (*BlockFile, error) {
	bf := &BlockFile{data: b, size: int64(len(b))}
	if err := bf.init(); err != nil {
		return nil, err
	}
	return bf, nil
}

// NewBlockFile opens a v2 file behind an io.ReaderAt of the given size.
func NewBlockFile(r io.ReaderAt, size int64) (*BlockFile, error) {
	bf := &BlockFile{r: r, size: size}
	if err := bf.init(); err != nil {
		return nil, err
	}
	return bf, nil
}

// OpenBlockFile opens a v2 file from disk, memory-mapping it when the
// platform supports it and falling back to pread otherwise. Close releases
// the mapping and the file.
func OpenBlockFile(path string) (*BlockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if data, unmap, err := mmapFile(f, size); err == nil {
		bf, err := NewBlockFileBytes(data)
		if err != nil {
			unmap()
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		bf.closers = append(bf.closers, closerFunc(unmap), f)
		return bf, nil
	}
	bf, err := NewBlockFile(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bf.closers = append(bf.closers, f)
	return bf, nil
}

type closerFunc func()

func (f closerFunc) Close() error { f(); return nil }

// Close releases the mapping and file handle, if any.
func (bf *BlockFile) Close() error {
	var first error
	for _, c := range bf.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	bf.closers = nil
	return first
}

// Header returns the file's trace metadata.
func (bf *BlockFile) Header() Header { return bf.header }

// Coverage returns the machine range [lo, hi) the file is responsible for,
// idle machines included. Files without a directory report the full fleet.
func (bf *BlockFile) Coverage() (lo, hi MachineID) { return bf.lo, bf.hi }

// Truncated reports whether the file was recovered without a directory —
// its trailing bytes were cut, and only the complete blocks are visible.
func (bf *BlockFile) Truncated() bool { return bf.truncated }

// NumBlocks returns how many blocks the file holds.
func (bf *BlockFile) NumBlocks() int { return len(bf.blocks) }

// Block returns the i'th block's summary.
func (bf *BlockFile) Block(i int) BlockMeta { return bf.blocks[i] }

// slice returns n bytes at off — a subslice when the file is in memory,
// a fresh read otherwise.
func (bf *BlockFile) slice(off, n int64, scratch *[]byte) ([]byte, error) {
	if off < 0 || n < 0 || off+n > bf.size {
		return nil, fmt.Errorf("trace: block range [%d, %d) outside file of %d bytes", off, off+n, bf.size)
	}
	if bf.data != nil {
		return bf.data[off : off+n], nil
	}
	if int64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	b := (*scratch)[:n]
	// A ReaderAt may report io.EOF beside a read that fills b at the end of
	// its input (bytes.Reader does for every read of an empty one).
	if got, err := bf.r.ReadAt(b, off); err != nil && !(err == io.EOF && int64(got) == n) {
		return nil, err
	}
	return b, nil
}

// init parses the header and locates the blocks, via the directory when the
// footer is intact and by walking otherwise.
func (bf *BlockFile) init() error {
	var scratch []byte
	head, err := bf.slice(0, min(bf.size, 64), &scratch)
	if err != nil {
		return err
	}
	br := bufio.NewReader(bytes.NewReader(head))
	h, version, err := readCodecHeader(br)
	if err != nil {
		return err
	}
	if version != codecVersion2 {
		return fmt.Errorf("trace: block files need codec v2, got version %d", version)
	}
	bf.header = h
	headerLen := int64(len(head)) - int64(br.Buffered())
	bf.lo, bf.hi = 0, MachineID(h.Machines)

	if err := bf.loadDirectory(headerLen); err == nil {
		return nil
	}
	return bf.walkBlocks(headerLen)
}

// loadDirectory parses the footer and directory of a cleanly closed file.
func (bf *BlockFile) loadDirectory(headerLen int64) error {
	if bf.size < headerLen+colFooterLen {
		return fmt.Errorf("trace: no room for a footer")
	}
	var scratch []byte
	foot, err := bf.slice(bf.size-colFooterLen, colFooterLen, &scratch)
	if err != nil {
		return err
	}
	if [4]byte(foot[8:12]) != colFooterMagic {
		return fmt.Errorf("trace: no footer magic")
	}
	dirOff := int64(binary.LittleEndian.Uint64(foot[:8]))
	if dirOff < headerLen || dirOff > bf.size-colFooterLen {
		return fmt.Errorf("trace: directory offset %d out of range", dirOff)
	}
	var dscratch []byte
	d, err := bf.slice(dirOff, bf.size-colFooterLen-dirOff, &dscratch)
	if err != nil {
		return err
	}
	if len(d) == 0 || d[0] != colTagDirectory {
		return fmt.Errorf("trace: directory tag missing")
	}
	n := 1
	readU := func() (uint64, bool) {
		v, k := binary.Uvarint(d[n:])
		if k <= 0 {
			return 0, false
		}
		n += k
		return v, true
	}
	readS := func() (int64, bool) {
		v, k := binary.Varint(d[n:])
		if k <= 0 {
			return 0, false
		}
		n += k
		return v, true
	}
	count, ok := readU()
	if !ok || count > math.MaxInt32 {
		return fmt.Errorf("trace: bad directory block count")
	}
	if count > uint64(bf.size)/13 {
		return fmt.Errorf("trace: directory block count %d implausible for %d-byte file", count, bf.size)
	}
	blocks := make([]BlockMeta, 0, count)
	prevOff := int64(0)
	for i := uint64(0); i < count; i++ {
		offD, ok1 := readU()
		stored, ok2 := readU()
		cnt, ok3 := readU()
		minStart, ok4 := readS()
		maxStart, ok5 := readS()
		maxEnd, ok6 := readS()
		minM, ok7 := readU()
		maxM, ok8 := readU()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 || !ok7 || !ok8 || n >= len(d) {
			return fmt.Errorf("trace: truncated directory entry")
		}
		mask := d[n]
		n++
		if cnt > math.MaxInt32 || minM > math.MaxInt32 || maxM > math.MaxInt32 {
			return fmt.Errorf("trace: implausible directory entry")
		}
		off := prevOff + int64(offD)
		prevOff = off
		if off < headerLen || int64(stored) <= 0 || off+int64(stored) > dirOff {
			return fmt.Errorf("trace: directory entry outside the block region")
		}
		blocks = append(blocks, BlockMeta{
			Offset:     off,
			StoredLen:  int64(stored),
			Count:      int(cnt),
			MinStart:   sim.Time(minStart),
			MaxStart:   sim.Time(maxStart),
			MaxEnd:     sim.Time(maxEnd),
			MinMachine: MachineID(minM),
			MaxMachine: MachineID(maxM),
			StateMask:  mask,
		})
	}
	lo, ok1 := readS()
	hi, ok2 := readS()
	if !ok1 || !ok2 {
		return fmt.Errorf("trace: truncated directory coverage")
	}
	if n != len(d) {
		return fmt.Errorf("trace: %d stray bytes after directory", len(d)-n)
	}
	if lo < 0 || hi < lo || (bf.header.Machines > 0 && hi > int64(bf.header.Machines)) {
		return fmt.Errorf("trace: directory coverage [%d, %d) invalid", lo, hi)
	}
	bf.blocks = blocks
	bf.lo, bf.hi = MachineID(lo), MachineID(hi)
	return nil
}

// walkBlocks scans block headers sequentially, salvaging the complete
// blocks of a file whose directory never made it to disk.
func (bf *BlockFile) walkBlocks(headerLen int64) error {
	bf.truncated = true
	bf.blocks = nil
	var scratch []byte
	off := headerLen
	for off < bf.size {
		hdr, err := bf.slice(off, min(64, bf.size-off), &scratch)
		if err != nil {
			return err
		}
		if hdr[0] == colTagDirectory {
			// A directory the footer check rejected: stop at it.
			return nil
		}
		if hdr[0] != colTagBlock {
			return nil // unknown trailing bytes: treat as the cut point
		}
		meta, _, _, payloadLen, n, err := decodeBlockHeader(hdr[1:])
		if err != nil {
			return nil // header cut mid-way: salvage ends here
		}
		stored := int64(1+n) + int64(payloadLen)
		if off+stored > bf.size {
			return nil // payload cut mid-way
		}
		meta.Offset = off
		meta.StoredLen = stored
		bf.blocks = append(bf.blocks, meta)
		off += stored
	}
	return nil
}

// DecodeBlock decodes block i into buf's event slice, returning the events
// (valid until the next call with the same buf).
func (bf *BlockFile) DecodeBlock(i int, buf *BlockBuf) ([]Event, error) {
	if i < 0 || i >= len(bf.blocks) {
		return nil, fmt.Errorf("trace: block %d of %d", i, len(bf.blocks))
	}
	m := bf.blocks[i]
	b, err := bf.slice(m.Offset, m.StoredLen, &buf.payload)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 || b[0] != colTagBlock {
		return nil, fmt.Errorf("trace: block %d tag mismatch", i)
	}
	meta, codec, rawLen, payloadLen, n, err := decodeBlockHeader(b[1:])
	if err != nil {
		return nil, err
	}
	if int64(1+n)+int64(payloadLen) != m.StoredLen {
		return nil, fmt.Errorf("trace: block %d length mismatch", i)
	}
	if meta.Count != m.Count {
		return nil, fmt.Errorf("trace: block %d count disagrees with directory", i)
	}
	payload := b[1+n : 1+n+int(payloadLen)]
	raw, err := buf.z.decodePayload(codec, payload, int(rawLen), meta.Count)
	if err != nil {
		return nil, err
	}
	buf.events, err = decodeColumns(raw, meta, bf.header, buf.events)
	if err != nil {
		return nil, err
	}
	return buf.events, nil
}

// ScanFilter is a block-pruning predicate. The zero value admits
// everything; set fields to narrow the scan.
type ScanFilter struct {
	// Machine restricts to one machine id when HasMachine is set.
	Machine    MachineID
	HasMachine bool
	// Window restricts to events overlapping (Overlap mode) or starting in
	// (default) [Window.Start, Window.End) when HasWindow is set.
	Window    sim.Window
	HasWindow bool
	Overlap   bool
}

// AdmitBlock reports whether a block could contain matching events — the
// predicate-pushdown test. It is conservative: false means provably no
// match, true means "decode and check".
func (f ScanFilter) AdmitBlock(m BlockMeta) bool {
	if m.Count == 0 {
		return false
	}
	if f.HasMachine && !m.hasMachine(f.Machine) {
		return false
	}
	if f.HasWindow {
		if f.Overlap {
			if !m.overlapsWindow(f.Window) {
				return false
			}
		} else if !m.startsInWindow(f.Window) {
			return false
		}
	}
	return true
}

// AdmitEvent applies the exact per-event form of the predicate.
func (f ScanFilter) AdmitEvent(e Event) bool {
	if f.HasMachine && e.Machine != f.Machine {
		return false
	}
	if f.HasWindow {
		if f.Overlap {
			if !(e.Start < f.Window.End && e.End > f.Window.Start) {
				return false
			}
		} else if e.Start < f.Window.Start || e.Start >= f.Window.End {
			return false
		}
	}
	return true
}

// Scan streams every event matching f through visit, in file order,
// decoding only the blocks the summaries cannot rule out. It returns the
// number of blocks decoded and skipped.
func (bf *BlockFile) Scan(f ScanFilter, visit func(Event) error) (decoded, skipped int, err error) {
	var buf BlockBuf
	for i := range bf.blocks {
		if !f.AdmitBlock(bf.blocks[i]) {
			skipped++
			continue
		}
		decoded++
		events, err := bf.DecodeBlock(i, &buf)
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

// Reader returns bf itself: CollectEvents(bf.Reader()) is the call the
// frozen benchmark compiles against, so the method stays while it does.
func (bf *BlockFile) Reader() *BlockFile { return bf }

// CollectEvents decodes every block of bf into an in-memory, validated
// Trace: those the directory places within maxEventsHint events on workers
// (par.For), each straight into its place in one slice, any after them one
// by one. A Truncated file yields the events of its complete blocks.
func CollectEvents(bf *BlockFile) (*Trace, error) {
	h := bf.Header()
	t := &Trace{Span: h.Span, Calendar: h.Calendar, Machines: h.Machines}
	at := []int{0} // at[i]: where block i's events go
	for i := 0; i < len(bf.blocks) && at[i]+bf.blocks[i].Count <= maxEventsHint; i++ {
		at = append(at, at[i]+bf.blocks[i].Count)
	}
	placed := len(at) - 1
	t.Events = make([]Event, at[placed])
	if err := par.For(placed, 0, func(buf *BlockBuf, i int) error {
		buf.events = t.Events[at[i]:at[i+1]:at[i+1]]
		_, err := bf.DecodeBlock(i, buf)
		return err
	}); err != nil {
		return nil, err
	}
	var buf BlockBuf
	for i := placed; i < len(bf.blocks); i++ {
		events, err := bf.DecodeBlock(i, &buf)
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, events...)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile loads a trace file into a validated in-memory Trace — the one
// loader the command-line tools share. It reads the whole file first, so a
// pipe such as /dev/stdin works. Errors name the file; one without its
// directory wraps ErrTruncated.
func ReadFile(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := loadBlocks(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// ReadBlocks is ReadFile over the bytes r yields.
func ReadBlocks(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return loadBlocks(b)
}

// loadBlocks is the body ReadFile and ReadBlocks share: a whole v2 file in
// b, refused if Truncated.
func loadBlocks(b []byte) (*Trace, error) {
	bf, err := NewBlockFileBytes(b)
	if err != nil {
		return nil, err
	}
	if bf.Truncated() {
		return nil, errNoDirectory
	}
	return CollectEvents(bf)
}

// readCodecHeader reads the magic, version and header that open a trace
// file of either version from br, and holds the header to checkHeader.
func readCodecHeader(br *bufio.Reader) (Header, uint64, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading codec magic: %w", truncatedEOF(err))
	}
	if magic != codecMagic {
		return Header{}, 0, fmt.Errorf("trace: bad codec magic %q", magic[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading codec version: %w", truncatedEOF(err))
	}
	spanStart, err := binary.ReadVarint(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading span start: %w", truncatedEOF(err))
	}
	spanEnd, err := binary.ReadVarint(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading span end: %w", truncatedEOF(err))
	}
	weekday, err := binary.ReadVarint(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading start weekday: %w", truncatedEOF(err))
	}
	machines, err := binary.ReadUvarint(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading machine count: %w", truncatedEOF(err))
	}
	h := Header{
		Span:     sim.Window{Start: sim.Time(spanStart), End: sim.Time(spanEnd)},
		Calendar: sim.Calendar{StartWeekday: int(weekday)},
		Machines: int(min(machines, math.MaxInt64)),
	}
	if err := checkHeader(h); err != nil {
		return Header{}, 0, err
	}
	return h, version, nil
}

// truncatedEOF converts an EOF inside the header into ErrTruncated, so a
// file cut there reads as cut, not as corrupt.
func truncatedEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}
