package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/sim"
)

// BlockDecoder reads a v2 columnar stream event by event from a plain
// io.Reader — no seeking, no directory required — so it slots in wherever
// the v1 Decoder does (NewReader, CollectEvents). Memory is bounded by one
// block. A stream cut mid-block yields every event of the complete blocks
// before surfacing ErrTruncated, matching the v1 salvage semantics.
type BlockDecoder struct {
	r      *bufio.Reader
	header Header

	buf []Event
	pos int

	payload []byte
	z       inflater

	done bool
	err  error
}

// NewBlockDecoder reads and validates the v2 magic and header from r. Use
// NewReader to sniff the version instead of committing to one.
func NewBlockDecoder(r io.Reader) (*BlockDecoder, error) {
	br := bufio.NewReader(r)
	h, version, err := readCodecHeader(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion2 {
		return nil, fmt.Errorf("trace: unsupported codec version %d", version)
	}
	return &BlockDecoder{r: br, header: h}, nil
}

// newBlockDecoderAfterHeader wraps a reader already past the magic,
// version and header.
func newBlockDecoderAfterHeader(br *bufio.Reader, h Header) *BlockDecoder {
	return &BlockDecoder{r: br, header: h}
}

// Header returns the stream's trace metadata.
func (d *BlockDecoder) Header() Header { return d.header }

// Next returns the next event, or io.EOF when the stream ends cleanly —
// either at the directory of a closed file or at a record boundary of a
// flushed-but-unclosed stream.
func (d *BlockDecoder) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	for d.pos >= len(d.buf) {
		if d.done {
			return Event{}, io.EOF
		}
		if err := d.nextBlock(); err != nil {
			d.err = err
			return Event{}, err
		}
	}
	ev := d.buf[d.pos]
	d.pos++
	return ev, nil
}

// nextBlock reads one record; on a block it fills d.buf, on the directory
// it consumes it plus the footer and marks the stream done.
func (d *BlockDecoder) nextBlock() error {
	tag, err := d.r.ReadByte()
	if err == io.EOF {
		d.done = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("trace: reading record tag: %w", truncatedEOF(err))
	}
	switch tag {
	case colTagBlock:
		return d.readBlock()
	case colTagDirectory:
		if err := d.skipDirectory(); err != nil {
			return err
		}
		d.done = true
		return nil
	default:
		return fmt.Errorf("trace: unknown record tag %q", tag)
	}
}

// readBlock parses one block record into d.buf.
func (d *BlockDecoder) readBlock() error {
	// Block headers are small (< 64 bytes); peek enough to parse in place.
	hdr, err := d.r.Peek(64)
	if err != nil && len(hdr) == 0 {
		return fmt.Errorf("trace: reading block header: %w", truncatedEOF(err))
	}
	meta, codec, rawLen, payloadLen, n, perr := decodeBlockHeader(hdr)
	if perr != nil {
		if err != nil {
			// The header itself was cut short.
			return fmt.Errorf("trace: reading block header: %w", ErrTruncated)
		}
		return perr
	}
	if _, err := d.r.Discard(n); err != nil {
		return fmt.Errorf("trace: reading block header: %w", truncatedEOF(err))
	}
	if cap(d.payload) < int(payloadLen) {
		d.payload = make([]byte, payloadLen)
	}
	d.payload = d.payload[:payloadLen]
	if _, err := io.ReadFull(d.r, d.payload); err != nil {
		return fmt.Errorf("trace: reading block payload: %w", truncatedEOF(err))
	}
	raw, err := d.z.decodePayload(codec, d.payload, int(rawLen), meta.Count)
	if err != nil {
		return err
	}
	d.buf, err = decodeColumns(raw, meta, d.header, d.buf)
	if err != nil {
		return err
	}
	d.pos = 0
	return nil
}

// skipDirectory consumes a directory record and the footer, verifying the
// stream ends there.
func (d *BlockDecoder) skipDirectory() error {
	blocks, err := binary.ReadUvarint(d.r)
	if err != nil {
		return fmt.Errorf("trace: reading directory: %w", truncatedEOF(err))
	}
	if blocks > math.MaxInt32 {
		return fmt.Errorf("trace: implausible directory block count %d", blocks)
	}
	for i := uint64(0); i < blocks; i++ {
		// offset, storedLen, count: uvarints; minStart, maxStart, maxEnd:
		// varints; minMachine, maxMachine: uvarints; one mask byte.
		for j := 0; j < 8; j++ {
			if _, err := binary.ReadUvarint(d.r); err != nil {
				return fmt.Errorf("trace: reading directory: %w", truncatedEOF(err))
			}
		}
		if _, err := d.r.ReadByte(); err != nil {
			return fmt.Errorf("trace: reading directory: %w", truncatedEOF(err))
		}
	}
	for j := 0; j < 2; j++ { // coverage lo, hi
		if _, err := binary.ReadVarint(d.r); err != nil {
			return fmt.Errorf("trace: reading directory coverage: %w", truncatedEOF(err))
		}
	}
	var foot [colFooterLen]byte
	if _, err := io.ReadFull(d.r, foot[:]); err != nil {
		return fmt.Errorf("trace: reading footer: %w", truncatedEOF(err))
	}
	if [4]byte(foot[8:12]) != colFooterMagic {
		return fmt.Errorf("trace: bad footer magic %q", foot[8:12])
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: data after v2 footer")
	}
	return nil
}

// readCodecHeader reads the shared magic/version/header prefix of both
// codec versions from br.
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
	if machines > math.MaxInt32 {
		return Header{}, 0, fmt.Errorf("trace: implausible machine count %d", machines)
	}
	h := Header{
		Span:     sim.Window{Start: sim.Time(spanStart), End: sim.Time(spanEnd)},
		Calendar: sim.Calendar{StartWeekday: int(weekday)},
		Machines: int(machines),
	}
	if h.Span.End < h.Span.Start {
		return Header{}, 0, fmt.Errorf("trace: inverted span %v in codec header", h.Span)
	}
	return h, version, nil
}

// NewReader opens a binary trace stream of either codec version, sniffing
// the version from the header: a v1 stream yields a *Decoder, a v2 stream a
// *BlockDecoder, both behind the EventReader interface.
func NewReader(r io.Reader) (EventReader, error) {
	br := bufio.NewReader(r)
	h, version, err := readCodecHeader(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case codecVersion:
		return newDecoderAfterHeader(br, h), nil
	case codecVersion2:
		return newBlockDecoderAfterHeader(br, h), nil
	default:
		return nil, fmt.Errorf("trace: unsupported codec version %d", version)
	}
}

// ReadFile loads a binary trace file of either codec version into a
// validated in-memory Trace — the one loader the command-line tools share.
// Errors name the file; one cut short mid-record wraps ErrTruncated.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t, err := CollectEvents(rd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
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
		if eventLess(events[i], events[i-1]) {
			return false
		}
	}
	return true
}

// ReadBlocks parses a trace written in the v2 codec and validates it.
func ReadBlocks(r io.Reader) (*Trace, error) {
	dec, err := NewBlockDecoder(r)
	if err != nil {
		return nil, err
	}
	return CollectEvents(dec)
}

// CollectEvents drains an EventReader of either codec version into an
// in-memory, validated Trace.
func CollectEvents(rd EventReader) (*Trace, error) {
	h := rd.Header()
	t := &Trace{Span: h.Span, Calendar: h.Calendar, Machines: h.Machines}
	if bfr, ok := rd.(*blockFileReader); ok { // whole blocks; the loop then meets io.EOF at once
		var err error
		if t.Events, err = bfr.rest(); err != nil {
			return nil, err
		}
	}
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
