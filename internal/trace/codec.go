package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/availability"
	"repro/internal/sim"
)

// Binary trace codec: a compact streaming encoding for fleet-scale traces.
//
// A file is a header followed by a flat sequence of event records and ends
// at EOF (no trailer), so encoders can stream events as they are produced
// and decoders can consume arbitrarily large files in constant memory.
//
//	magic   "FGCB" (4 bytes)
//	version uvarint (currently 1)
//	header  zigzag(span.Start) zigzag(span.End) zigzag(startWeekday)
//	        uvarint(machines)
//	event   uvarint(machine)
//	        zigzag(start - previous start of the same machine)
//	        uvarint(end - start)
//	        byte(state)
//	        8 bytes little-endian float64 bits (avail CPU)
//	        zigzag(avail mem)
//
// Delta-encoding start times per machine keeps records small when events
// are machine-clustered and time-sorted — the order shard files are
// written in — while still accepting any event order.

// ErrTruncated reports a stream that ends mid-record or mid-header — the
// signature of a shard cut short by a crash. Decoder.Next returns every
// event up to the last complete record before surfacing it, so callers can
// salvage the intact prefix: errors.Is(err, ErrTruncated) distinguishes a
// recoverable truncation from genuine corruption.
var ErrTruncated = errors.New("trace: stream truncated mid-record")

// codecMagic identifies a binary trace stream.
var codecMagic = [4]byte{'F', 'G', 'C', 'B'}

// codecVersion is the current wire version.
const codecVersion = 1

// Header carries the trace metadata that precedes the event stream.
type Header struct {
	Span     sim.Window
	Calendar sim.Calendar
	Machines int
}

// Encoder writes a binary trace stream. Create with NewEncoder, call Write
// per event, and Close (or Flush) when done. Memory use is constant in the
// number of events: only the per-machine previous start times are retained.
type Encoder struct {
	w    *bufio.Writer
	prev map[MachineID]sim.Time
	buf  []byte
	err  error
}

// NewEncoder writes the magic and header to w and returns a streaming
// encoder for the event records.
func NewEncoder(w io.Writer, h Header) (*Encoder, error) {
	e := &Encoder{
		w:    bufio.NewWriter(w),
		prev: make(map[MachineID]sim.Time),
		buf:  make([]byte, 0, 64),
	}
	if _, err := e.w.Write(codecMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing codec magic: %w", err)
	}
	e.buf = binary.AppendUvarint(e.buf[:0], codecVersion)
	e.buf = binary.AppendVarint(e.buf, int64(h.Span.Start))
	e.buf = binary.AppendVarint(e.buf, int64(h.Span.End))
	e.buf = binary.AppendVarint(e.buf, int64(h.Calendar.StartWeekday))
	e.buf = binary.AppendUvarint(e.buf, uint64(h.Machines))
	if _, err := e.w.Write(e.buf); err != nil {
		return nil, fmt.Errorf("trace: writing codec header: %w", err)
	}
	return e, nil
}

// Write appends one event record. Events may arrive in any order; encoding
// is densest when each machine's events are time-sorted.
func (e *Encoder) Write(ev Event) error {
	if e.err != nil {
		return e.err
	}
	if err := ev.Validate(); err != nil {
		e.err = err
		return err
	}
	if math.IsNaN(ev.AvailCPU) || math.IsInf(ev.AvailCPU, 0) {
		e.err = fmt.Errorf("trace: non-finite avail cpu %v on machine %d", ev.AvailCPU, ev.Machine)
		return e.err
	}
	b := e.buf[:0]
	b = binary.AppendUvarint(b, uint64(ev.Machine))
	b = binary.AppendVarint(b, int64(ev.Start-e.prev[ev.Machine]))
	b = binary.AppendUvarint(b, uint64(ev.End-ev.Start))
	b = append(b, byte(ev.State))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.AvailCPU))
	b = binary.AppendVarint(b, ev.AvailMem)
	e.buf = b
	e.prev[ev.Machine] = ev.Start
	if _, err := e.w.Write(b); err != nil {
		e.err = fmt.Errorf("trace: writing event record: %w", err)
		return e.err
	}
	return nil
}

// Flush forces buffered records to the underlying writer.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		e.err = err
		return err
	}
	return nil
}

// Close flushes the stream. The encoder is unusable afterwards.
func (e *Encoder) Close() error {
	if err := e.Flush(); err != nil {
		return err
	}
	e.err = fmt.Errorf("trace: encoder closed")
	return nil
}

// Decoder reads a binary trace stream event by event in constant memory.
type Decoder struct {
	r      *bufio.Reader
	header Header
	prev   map[MachineID]sim.Time
}

// NewDecoder reads and validates the magic and header from r. It accepts
// v1 streams only; use NewReader to sniff the version and handle both.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	h, version, err := readCodecHeader(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("trace: unsupported codec version %d", version)
	}
	return newDecoderAfterHeader(br, h), nil
}

// newDecoderAfterHeader wraps a reader already past the magic, version and
// header.
func newDecoderAfterHeader(br *bufio.Reader, h Header) *Decoder {
	return &Decoder{r: br, header: h, prev: make(map[MachineID]sim.Time)}
}

// Header returns the stream's trace metadata.
func (d *Decoder) Header() Header { return d.header }

// Next returns the next event, or io.EOF when the stream ends cleanly at a
// record boundary. A stream cut mid-record yields an error wrapping
// ErrTruncated; any other error means a corrupt stream.
func (d *Decoder) Next() (Event, error) {
	machine, err := binary.ReadUvarint(d.r)
	if err == io.EOF {
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading event machine: %w", truncatedEOF(err))
	}
	if machine > math.MaxInt32 {
		return Event{}, fmt.Errorf("trace: implausible machine id %d", machine)
	}
	m := MachineID(machine)
	if d.header.Machines > 0 && int(m) >= d.header.Machines {
		return Event{}, fmt.Errorf("trace: event machine %d outside 0..%d", m, d.header.Machines-1)
	}
	delta, err := binary.ReadVarint(d.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading event start: %w", truncatedEOF(err))
	}
	dur, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading event duration: %w", truncatedEOF(err))
	}
	if dur > math.MaxInt64 {
		return Event{}, fmt.Errorf("trace: implausible event duration %d", dur)
	}
	state, err := d.r.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading event state: %w", truncatedEOF(err))
	}
	var bits [8]byte
	if _, err := io.ReadFull(d.r, bits[:]); err != nil {
		return Event{}, fmt.Errorf("trace: reading avail cpu: %w", truncatedEOF(err))
	}
	mem, err := binary.ReadVarint(d.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading avail mem: %w", truncatedEOF(err))
	}
	start := d.prev[m] + sim.Time(delta)
	ev := Event{
		Machine:  m,
		Start:    start,
		End:      start + sim.Time(dur),
		State:    availability.State(state),
		AvailCPU: math.Float64frombits(binary.LittleEndian.Uint64(bits[:])),
		AvailMem: mem,
	}
	if math.IsNaN(ev.AvailCPU) || math.IsInf(ev.AvailCPU, 0) {
		// NaN would also defeat Event equality checks downstream, so a
		// corrupt float is a decode error, not a valid event.
		return Event{}, fmt.Errorf("trace: non-finite avail cpu on machine %d", m)
	}
	if ev.End < ev.Start { // duration addition overflowed
		return Event{}, fmt.Errorf("trace: event time overflow at start %v", ev.Start)
	}
	if err := ev.Validate(); err != nil {
		return Event{}, err
	}
	d.prev[m] = ev.Start
	return ev, nil
}

// truncatedEOF converts a mid-record or mid-header EOF into ErrTruncated so
// a crash-cut shard is distinguishable from both a clean end of stream and
// genuine corruption. Varint continuation bits guarantee a truncated prefix
// can never parse as a different complete record, so every cut lands here.
func truncatedEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// WriteBinary writes the whole trace in the binary codec.
func (t *Trace) WriteBinary(w io.Writer) error {
	enc, err := NewEncoder(w, Header{Span: t.Span, Calendar: t.Calendar, Machines: t.Machines})
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := enc.Write(e); err != nil {
			return err
		}
	}
	return enc.Close()
}

// ReadBinary parses a trace written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Trace, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	h := dec.Header()
	t := &Trace{Span: h.Span, Calendar: h.Calendar, Machines: h.Machines}
	for {
		e, err := dec.Next()
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

// EventReader is the common face of every sorted event source: the v1
// Decoder, the v2 BlockDecoder and a BlockFile reader all serve it, so
// loaders are codec-agnostic.
type EventReader interface {
	// Header returns the stream's trace metadata.
	Header() Header
	// Next returns the next event, or io.EOF at a clean end of stream.
	Next() (Event, error)
}

// eventLess orders events by (machine, start, end) — the Trace.Sort order.
func eventLess(a, b Event) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End < b.End
}
