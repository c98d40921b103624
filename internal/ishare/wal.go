package ishare

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// This file is the durability layer of a registry shard: a write-ahead
// log of every acked state mutation (registrations, heartbeats,
// unregistrations) plus periodic snapshots that compact it. The contract
// the crash harness checks is exactly the one the paper's URR events
// demand of a production control plane: a shard killed at any instant —
// ~90% of the paper's unavailability events are reboots with sub-minute
// outages — restarts with every acked registration intact, because the
// ack is only sent after the mutation record reached the log.
//
// Record framing is length-prefixed and CRC-checked:
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// Payloads are compact binary: uvarint/varint fields, length-prefixed
// strings, interned one-byte codes for the paper's five availability
// states, float64 bits for loads, and fixed 64-bit millisecond stamps
// (a stamp would be a ~7-byte varint anyway, so fixed width encodes
// faster for free). Heartbeats that advance nothing but liveness are
// logged as a shared-stamp refresh record rather than full entries. A
// torn final record — short frame, short payload, or CRC mismatch at
// the tail, the signature of a crash mid-write — is tolerated: recovery
// replays every intact record and truncates the tail. The log's fsync is
// batched and off the serving path when the background sync loop is
// running: an append past the byte threshold kicks the loop instead of
// syncing inline, and the loop fsyncs without holding the append lock, so
// an append pays one buffer-reusing encode and one write() per acked batch
// and no fsync. Compaction is the exception: the append that reaches
// CompactEvery snapshots the shard (walLocked → compact), encoding,
// writing and fsyncing every record while its handler holds the shard
// lock, so that batch and every request queued on the lock wait for it —
// at 25 000 nodes 6.8 ms alone, and 14.6 ms median (the registry's entries
// copy included), 36.5 ms at most, over the 67 compactions of two 20 s
// cp-ingest runs (2 vCPU).

const (
	walKindUpsert   byte = 1 // a batch of digests with liveness stamps
	walKindRemove   byte = 2 // one unregistration
	walKindShardMap byte = 3 // an older log's shard-map install: read and dropped, never written
	walKindRefresh  byte = 4 // a batch of pure liveness refreshes: one stamp, many names

	walFrameHeader = 8 // u32 length + u32 crc
	// walMaxRecordBytes bounds one record's decoded allocation; anything
	// larger is treated as corruption, not a request for 4 GiB.
	walMaxRecordBytes = 16 << 20

	walFileName  = "registry.wal"
	snapFileName = "registry.snap"
)

// WALOptions configures a registry shard's write-ahead log.
type WALOptions struct {
	// Dir is the shard's durability directory (required). The log lives in
	// Dir/registry.wal, snapshots in Dir/registry.snap.
	Dir string
	// SyncInterval paces the background fsync of a lazily-written log
	// (default 100 ms); a negative interval disables the background loop
	// (tests), and every syncEveryBytes of log is then synced inline.
	SyncInterval time.Duration
	// CompactEvery snapshots the full state and truncates the log after
	// this many appended records (default 8192).
	CompactEvery int
	// FsyncDelay is injected before every fsync — the chaos layer's slow-
	// disk fault. Zero for production.
	FsyncDelay time.Duration
}

// syncEveryBytes of unsynced log trigger an fsync. With the background loop
// running the threshold kicks the loop rather than syncing inline, so acks
// never wait for fsync — a write() into the page cache survives process
// death. The loss window on host death is bounded in time by SyncInterval
// and in bytes, under burst, by this threshold.
const syncEveryBytes = 1 << 20

func (o WALOptions) withDefaults() WALOptions {
	if o.SyncInterval < 0 {
		o.SyncInterval = 0
	} else if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 8192
	}
	return o
}

// walEntry is one node's durable state: its digest plus the liveness
// stamp the registry would otherwise lose on restart.
type walEntry struct {
	d          NodeDigest
	lastSeenMS int64
}

// walRecord is one logged mutation.
type walRecord struct {
	kind    byte
	entries []walEntry // walKindUpsert
	name    string     // walKindRemove
	names   []string   // walKindRefresh
	stampMS int64      // walKindRefresh
}

// wal is the open log of one registry shard.
type wal struct {
	opt WALOptions

	// The registry appends while holding its own state lock, so wal.mu
	// only coordinates appends with the background sync loop. Lock order
	// is Registry.mu -> wal.mu, never the reverse.
	muWAL       chan struct{} // 1-buffered mutex; chan so Close can race-free drain
	f           *os.File
	buf         []byte // reusable frame-encode scratch, guarded by muWAL
	dirty       int64  // bytes written since the last fsync
	sinceCompat int    // records appended since the last compaction
	appends     uint64
	syncs       atomic.Uint64 // atomic: bumped by background fsync outside muWAL
	compactions uint64

	kick   chan struct{} // nudges the sync loop when dirty crosses the threshold
	closed chan struct{}
	done   chan struct{}
}

func (w *wal) lock()   { w.muWAL <- struct{}{} }
func (w *wal) unlock() { <-w.muWAL }

// openWAL opens (creating if needed) the log in opt.Dir, replays the
// snapshot and then the log through apply, truncates any torn tail, and
// leaves the log open for appending. It returns the number of records
// replayed.
func openWAL(opt WALOptions, apply func(walRecord)) (*wal, int, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, 0, errors.New("ishare: WAL requires a directory")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("ishare: WAL dir: %w", err)
	}
	replayed := 0
	if data, err := os.ReadFile(filepath.Join(opt.Dir, snapFileName)); err == nil {
		n, _, err := replayWALBytes(data, apply)
		if err != nil {
			return nil, 0, fmt.Errorf("ishare: corrupt snapshot %s: %w", snapFileName, err)
		}
		replayed += n
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("ishare: reading snapshot: %w", err)
	}
	walPath := filepath.Join(opt.Dir, walFileName)
	goodBytes := int64(0)
	if data, err := os.ReadFile(walPath); err == nil {
		n, good, _ := replayWALBytes(data, apply) // torn tail tolerated
		replayed += n
		goodBytes = good
	} else if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("ishare: reading WAL: %w", err)
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("ishare: opening WAL: %w", err)
	}
	// Drop the torn tail so the next append starts a clean frame.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ishare: truncating torn WAL tail: %w", err)
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, 0, err
	}
	w := &wal{
		opt:    opt,
		muWAL:  make(chan struct{}, 1),
		f:      f,
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if opt.SyncInterval > 0 {
		w.kick = make(chan struct{}, 1)
		go w.syncLoop()
	} else {
		close(w.done)
	}
	return w, replayed, nil
}

// replayWALBytes decodes a framed record stream, calling apply for every
// intact record. It returns the record count, the byte offset of the end
// of the last intact record (the truncation point for a torn tail), and
// the framing error that stopped the scan (nil at a clean end of stream).
// Allocation is bounded by the input: a frame length larger than the
// remaining bytes is torn by definition and never allocated for.
func replayWALBytes(data []byte, apply func(walRecord)) (int, int64, error) {
	n := 0
	off := int64(0)
	for int64(len(data))-off >= walFrameHeader {
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > walMaxRecordBytes {
			return n, off, fmt.Errorf("record length %d exceeds %d", length, int64(walMaxRecordBytes))
		}
		if off+walFrameHeader+length > int64(len(data)) {
			return n, off, errors.New("torn record: frame longer than remaining bytes")
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+length]
		if crc32.ChecksumIEEE(payload) != crc {
			return n, off, errors.New("record CRC mismatch")
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return n, off, err
		}
		if apply != nil {
			apply(rec)
		}
		n++
		off += walFrameHeader + length
	}
	if off != int64(len(data)) {
		return n, off, errors.New("torn record: short frame header")
	}
	return n, off, nil
}

// append frames, checksums and writes one record. It returns true when a
// compaction is due; the caller (who holds the registry state lock and
// can therefore snapshot consistently) then calls compact.
func (w *wal) append(rec walRecord) (compactDue bool, err error) {
	return w.appendPayload(func(b []byte) []byte { return encodeWALRecordTo(b, rec) })
}

// appendUpsert logs a digest batch at one liveness stamp. This is the
// serving hot path (register_batch, heartbeat_batch): the digests are
// encoded straight into the reused frame buffer, with no intermediate
// entry slice and no per-record allocation.
func (w *wal) appendUpsert(ds []NodeDigest, lastSeenMS int64) (compactDue bool, err error) {
	return w.appendPayload(func(b []byte) []byte {
		b = append(b, walKindUpsert)
		b = appendUvarint(b, uint64(len(ds)))
		for _, d := range ds {
			b = appendWALEntry(b, d, lastSeenMS)
		}
		return b
	})
}

// appendRefresh logs heartbeats that advanced nothing but lastSeen — in
// a steady fleet that is most of every sweep — as one shared stamp plus
// the node names. The compact form writes ~2.5x fewer bytes than full
// entries would, which is the difference between the WAL riding inside
// the heartbeat overhead budget and blowing it on write amplification.
func (w *wal) appendRefresh(names []string, lastSeenMS int64) (compactDue bool, err error) {
	return w.appendPayload(func(b []byte) []byte {
		b = append(b, walKindRefresh)
		b = appendFixed64(b, lastSeenMS)
		b = appendUvarint(b, uint64(len(names)))
		for _, n := range names {
			b = appendString(b, n)
		}
		return b
	})
}

// appendPayload writes one record whose payload enc appends, framed in
// place by frame, so a record costs one encode pass and one write(), no
// copies. When the unsynced tail crosses the threshold the background loop
// is kicked; only a WAL running without that loop (tests) syncs inline.
func (w *wal) appendPayload(enc func([]byte) []byte) (compactDue bool, err error) {
	if w == nil {
		return false, nil
	}
	w.lock()
	defer w.unlock()
	if w.f == nil {
		return false, errors.New("ishare: WAL closed")
	}
	frame := w.frame(enc)
	if _, err := w.f.Write(frame); err != nil {
		return false, fmt.Errorf("ishare: WAL append: %w", err)
	}
	w.appends++
	w.dirty += int64(len(frame))
	if w.dirty >= syncEveryBytes {
		if w.kick != nil {
			select {
			case w.kick <- struct{}{}:
			default: // a kick is already pending
			}
		} else if err := w.syncLocked(); err != nil {
			return false, err
		}
	}
	w.sinceCompat++
	return w.sinceCompat >= w.opt.CompactEvery, nil
}

// frame builds one record in the reused scratch buffer: 8 reserved header
// bytes, the payload enc appends, then length and CRC backfilled. The
// frame is valid until the next call. Holds muWAL.
func (w *wal) frame(enc func([]byte) []byte) []byte {
	frame := enc(append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0))
	payload := frame[walFrameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	w.buf = frame[:0]
	return frame
}

// compact writes the given full-state records to a fresh snapshot, each
// framed like an append and written once, atomically replaces the old one,
// and truncates the log. The caller must pass a consistent snapshot (it
// holds the registry state lock).
func (w *wal) compact(state []walRecord) error {
	w.lock()
	defer w.unlock()
	if w.f == nil {
		return errors.New("ishare: WAL closed")
	}
	tmp := filepath.Join(w.opt.Dir, snapFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ishare: snapshot create: %w", err)
	}
	for _, rec := range state {
		frame := w.frame(func(b []byte) []byte { return encodeWALRecordTo(b, rec) })
		if _, err := f.Write(frame); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ishare: snapshot write: %w", err)
		}
	}
	if err := w.fsync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ishare: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.opt.Dir, snapFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ishare: snapshot rename: %w", err)
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("ishare: WAL truncate: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	w.dirty = 0
	w.sinceCompat = 0
	w.compactions++
	return nil
}

// Sync flushes unsynced log bytes to stable storage. The fsync itself
// runs with the append lock released, so writers never stall behind the
// disk: bytes appended while the sync is in flight stay counted as
// dirty for the next round.
func (w *wal) Sync() error {
	w.lock()
	f, d0 := w.f, w.dirty
	w.unlock()
	if f == nil || d0 == 0 {
		return nil
	}
	err := w.fsync(f)
	w.lock()
	defer w.unlock()
	if err != nil {
		return fmt.Errorf("ishare: WAL sync: %w", err)
	}
	if w.f == f {
		if w.dirty -= d0; w.dirty < 0 {
			w.dirty = 0
		}
	}
	return nil
}

func (w *wal) syncLocked() error {
	if err := w.fsync(w.f); err != nil {
		return fmt.Errorf("ishare: WAL sync: %w", err)
	}
	w.dirty = 0
	return nil
}

// fsync applies the injected slow-disk latency, then syncs. It is safe
// with or without muWAL held (os.File is concurrency-safe).
func (w *wal) fsync(f *os.File) error {
	if w.opt.FsyncDelay > 0 {
		time.Sleep(w.opt.FsyncDelay)
	}
	w.syncs.Add(1)
	return f.Sync()
}

func (w *wal) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.closed:
			return
		case <-t.C:
		case <-w.kick:
		}
		_ = w.Sync()
	}
}

// Close stops the sync loop and closes the log. With sync true the tail
// is fsynced first (graceful shutdown); false models a crash, leaving
// whatever write() already delivered. Like the appends, it is a no-op on
// the nil *wal of a registry without durability.
func (w *wal) Close(sync bool) error {
	if w == nil {
		return nil
	}
	select {
	case <-w.closed:
	default:
		close(w.closed)
	}
	<-w.done
	w.lock()
	defer w.unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if sync && w.dirty > 0 {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// --- record codec ---------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], v)]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return appendFixed64(b, int64(math.Float64bits(f)))
}

func appendFixed64(b []byte, v int64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	return append(b, tmp[:]...)
}

// walStates is the state each log code but 0 stands for, taken from the
// registry's codeStates so an entry's state costs one byte instead of up to
// 20: 1 is the empty no-digest state and 2–6 the five state names' long
// forms. Code 0 escapes to a length-prefixed string for anything else,
// short forms included; encode and decode share this table.
var walStates = func() (t [2 + len(wireStates)]string) {
	t[1] = codeStates[0]
	for d := range wireStates {
		t[2+d] = codeStates[2+2*d]
	}
	return t
}()

// walStateCode is s's code in the log.
func walStateCode(s string) byte {
	if c := slices.Index(walStates[1:], s); c >= 0 {
		return byte(1 + c)
	}
	return 0
}

func appendWALState(b []byte, s string) []byte {
	c := walStateCode(s)
	b = append(b, c)
	if c == 0 {
		b = appendString(b, s)
	}
	return b
}

// appendWALEntry encodes one entry's fields in wire order. The liveness
// stamp rides as a varint delta against the digest stamp — the two are
// within milliseconds of each other on the serving path, so the delta is
// one or two bytes where a fixed stamp would be eight.
func appendWALEntry(b []byte, d NodeDigest, lastSeenMS int64) []byte {
	b = appendString(b, d.Name)
	b = appendString(b, d.Addr)
	b = appendWALState(b, d.State)
	b = appendFloat(b, d.Load)
	b = appendVarint(b, d.Gen)
	b = appendFixed64(b, d.UnixMS)
	return appendVarint(b, lastSeenMS-d.UnixMS)
}

func encodeWALRecordTo(b []byte, rec walRecord) []byte {
	b = append(b, rec.kind)
	switch rec.kind {
	case walKindUpsert:
		b = appendUvarint(b, uint64(len(rec.entries)))
		for _, e := range rec.entries {
			b = appendWALEntry(b, e.d, e.lastSeenMS)
		}
	case walKindRemove:
		b = appendString(b, rec.name)
	case walKindRefresh:
		b = appendFixed64(b, rec.stampMS)
		b = appendUvarint(b, uint64(len(rec.names)))
		for _, n := range rec.names {
			b = appendString(b, n)
		}
	}
	return b
}

// walReader decodes one record payload with strict bounds: every length
// is checked against the remaining bytes before any allocation.
type walReader struct {
	b   []byte
	err error
}

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errors.New("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) string_() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.err = errors.New("string length exceeds payload")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *walReader) float() float64 {
	return math.Float64frombits(uint64(r.fixed64()))
}

func (r *walReader) state() string {
	if r.err != nil {
		return ""
	}
	if len(r.b) == 0 {
		r.err = errors.New("short state code")
		return ""
	}
	c := r.b[0]
	r.b = r.b[1:]
	if c == 0 {
		return r.string_()
	}
	if int(c) >= len(walStates) {
		r.err = fmt.Errorf("unknown state code %d", c)
		return ""
	}
	return walStates[c]
}

func (r *walReader) fixed64() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errors.New("short fixed64")
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func decodeWALRecord(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, errors.New("empty record")
	}
	rec := walRecord{kind: payload[0]}
	r := &walReader{b: payload[1:]}
	switch rec.kind {
	case walKindUpsert:
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)) {
			// Each entry costs >= 1 byte on the wire; a count above the
			// remaining byte count cannot be honest. Bounds allocation.
			return walRecord{}, errors.New("entry count exceeds payload")
		}
		rec.entries = make([]walEntry, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			var e walEntry
			e.d.Name = r.string_()
			e.d.Addr = r.string_()
			e.d.State = r.state()
			e.d.Load = r.float()
			e.d.Gen = r.varint()
			e.d.UnixMS = r.fixed64()
			e.lastSeenMS = e.d.UnixMS + r.varint()
			rec.entries = append(rec.entries, e)
		}
	case walKindRemove:
		rec.name = r.string_()
	case walKindShardMap:
		// A log an older shard wrote starts with one. Its frame's CRC held,
		// so the body is what that shard wrote; replay has no use for it.
		r.b = nil
	case walKindRefresh:
		rec.stampMS = r.fixed64()
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)) {
			return walRecord{}, errors.New("name count exceeds payload")
		}
		rec.names = make([]string, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			rec.names = append(rec.names, r.string_())
		}
	default:
		return walRecord{}, fmt.Errorf("unknown record kind %d", rec.kind)
	}
	if r.err != nil {
		return walRecord{}, r.err
	}
	if len(r.b) != 0 {
		return walRecord{}, errors.New("trailing bytes in record")
	}
	return rec, nil
}
