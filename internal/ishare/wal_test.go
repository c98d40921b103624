package ishare

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func walTestRecords() []walRecord {
	return []walRecord{
		{kind: walKindUpsert, entries: []walEntry{
			{d: NodeDigest{Name: "m001", Addr: "127.0.0.1:9001", State: "S1(full)", Load: 0.12, Gen: 3, UnixMS: 1700000000123}, lastSeenMS: 1700000000123},
			{d: NodeDigest{Name: "m002", Addr: "127.0.0.1:9002", State: "S2(reduced)", Load: 0.87, Gen: 1, UnixMS: 1700000000456}, lastSeenMS: 1700000000456},
		}},
		{kind: walKindRemove, name: "m001"},
		{kind: walKindUpsert, entries: []walEntry{
			{d: NodeDigest{Name: "m003", State: "S1(full)", Gen: 9, UnixMS: 1700000001000}, lastSeenMS: 1700000001000},
		}},
		{kind: walKindRefresh, stampMS: 1700000002500, names: []string{"m002", "m003"}},
	}
}

func TestWALRecordCodecRoundTrip(t *testing.T) {
	for i, rec := range walTestRecords() {
		got, err := decodeWALRecord(encodeWALRecord(rec))
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

// TestWALStateCodes round-trips every state the registry codes and a few it
// does not through the log's state field: the empty state and the five long
// forms take one byte, codes 1–6 as older logs wrote them, and anything
// else, short forms included, is code 0 and the string.
func TestWALStateCodes(t *testing.T) {
	want := map[string]byte{"": 1, "S1(full)": 2, "S2(lowest-priority)": 3,
		"S3(cpu-unavail)": 4, "S4(mem-thrash)": 5, "S5(machine-unavail)": 6}
	states := append(codeStates[:], "S6", "S1(ful", "s1(full)", "S2(reduced)", "S3 (a note)", "lost", "S1(full) ")
	for _, s := range states {
		b := appendWALState(nil, s)
		if code, ok := want[s]; ok && !bytes.Equal(b, []byte{code}) {
			t.Errorf("%q logs as %v, want the one code %d", s, b, code)
		} else if !ok && (b[0] != 0 || len(b) == 1) {
			t.Errorf("%q logs as %v, want code 0 and the string", s, b)
		}
		r := &walReader{b: b}
		if got := r.state(); got != s || r.err != nil || len(r.b) != 0 {
			t.Errorf("%q reads back as %q (err %v, %d bytes left)", s, got, r.err, len(r.b))
		}
	}
	r := &walReader{b: []byte{7}}
	if r.state(); r.err == nil {
		t.Error("code 7 read without an error")
	}
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{Dir: dir, SyncInterval: -1}
	w, n, err := openWAL(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh WAL replayed %d records", n)
	}
	want := walTestRecords()
	for _, rec := range want {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}

	var got []walRecord
	w2, n, err := openWAL(opt, func(rec walRecord) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close(true)
	if n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered records differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestWALEveryTruncationOffset mirrors the trace codec's crash-cut test:
// a log truncated at every possible byte offset must replay exactly the
// records whose frames are fully intact, report the torn tail's offset,
// and never panic or misdecode.
func TestWALEveryTruncationOffset(t *testing.T) {
	var full []byte
	var ends []int64 // cumulative end offset of each record's frame
	for _, rec := range walTestRecords() {
		payload := encodeWALRecord(rec)
		frame := make([]byte, walFrameHeader+len(payload))
		frame[0] = byte(len(payload))
		frame[1] = byte(len(payload) >> 8)
		frame[2] = byte(len(payload) >> 16)
		frame[3] = byte(len(payload) >> 24)
		crc := crc32.ChecksumIEEE(payload)
		frame[4] = byte(crc)
		frame[5] = byte(crc >> 8)
		frame[6] = byte(crc >> 16)
		frame[7] = byte(crc >> 24)
		copy(frame[walFrameHeader:], payload)
		full = append(full, frame...)
		ends = append(ends, int64(len(full)))
	}
	for cut := 0; cut <= len(full); cut++ {
		data := full[:cut]
		wantN, wantOff := 0, int64(0)
		for i, end := range ends {
			if int64(cut) >= end {
				wantN = i + 1
				wantOff = end
			}
		}
		n, off, err := replayWALBytes(data, nil)
		if n != wantN || off != wantOff {
			t.Fatalf("cut %d: replayed n=%d off=%d, want n=%d off=%d (err %v)", cut, n, off, wantN, wantOff, err)
		}
		if int64(cut) != wantOff && err == nil {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if int64(cut) == wantOff && err != nil {
			t.Fatalf("cut %d: clean log reported error %v", cut, err)
		}
	}
}

// TestWALRecoveryTruncatesTornTail checks the file-level behavior: a
// crash-cut log replays its intact prefix, the torn bytes are removed,
// and appends after recovery produce a clean log.
func TestWALRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{Dir: dir, SyncInterval: -1}
	w, _, err := openWAL(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := walTestRecords()
	for _, rec := range recs {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(false); err != nil { // crash: no final sync
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the final record's frame.
	cut := int64(len(data)) - 3
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	var got []walRecord
	w2, n, err := openWAL(opt, func(rec walRecord) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs)-1 {
		t.Fatalf("replayed %d records, want %d", n, len(recs)-1)
	}
	if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
		t.Fatalf("intact prefix mismatch")
	}
	// The torn tail is gone and the log accepts appends again.
	if _, err := w2.append(recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(true); err != nil {
		t.Fatal(err)
	}
	var again []walRecord
	w3, n, err := openWAL(opt, func(rec walRecord) { again = append(again, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close(true)
	if n != len(recs) || !reflect.DeepEqual(again, recs) {
		t.Fatalf("post-recovery append not recovered: n=%d", n)
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := WALOptions{Dir: dir, SyncInterval: -1, CompactEvery: 3}
	w, _, err := openWAL(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := []walRecord{
		{kind: walKindUpsert, entries: []walEntry{
			{d: NodeDigest{Name: "survivor", Addr: "127.0.0.1:9100", State: "S1(full)", Gen: 7, UnixMS: 5000}, lastSeenMS: 5000},
		}},
	}
	due := false
	for i := 0; i < 3; i++ {
		due, err = w.append(walTestRecords()[0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if !due {
		t.Fatal("compaction not signalled after CompactEvery appends")
	}
	if err := w.compact(state); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after compaction: %v size=%d", err, fi.Size())
	}
	// One more append lands in the truncated log.
	post := walRecord{kind: walKindRemove, name: "gone"}
	if _, err := w.append(post); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	var got []walRecord
	w2, _, err := openWAL(opt, func(rec walRecord) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close(true)
	want := append(append([]walRecord(nil), state...), post)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction recovery:\n got %+v\nwant %+v", got, want)
	}
}

func TestWALFsyncDelayInjection(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(WALOptions{Dir: dir, SyncInterval: -1, FsyncDelay: 30 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(walTestRecords()[0]); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("injected fsync delay not applied: sync took %v", d)
	}
	w.Close(false)
}

func TestWALRejectsOversizedAndCorruptFrames(t *testing.T) {
	// A frame claiming more bytes than the input holds must not allocate
	// or decode; a flipped payload byte must fail the CRC.
	rec := walTestRecords()[0]
	payload := encodeWALRecord(rec)
	frame := make([]byte, walFrameHeader+len(payload))
	frame[0] = 0xFF
	frame[1] = 0xFF
	frame[2] = 0xFF
	frame[3] = 0x7F // ~2 GiB claimed
	if n, _, err := replayWALBytes(frame, nil); n != 0 || err == nil {
		t.Fatalf("oversized frame: n=%d err=%v", n, err)
	}

	good := make([]byte, walFrameHeader+len(payload))
	good[0] = byte(len(payload))
	crc := crc32.ChecksumIEEE(payload)
	good[4] = byte(crc)
	good[5] = byte(crc >> 8)
	good[6] = byte(crc >> 16)
	good[7] = byte(crc >> 24)
	copy(good[walFrameHeader:], payload)
	bad := bytes.Clone(good)
	bad[walFrameHeader] ^= 0x40
	if n, _, err := replayWALBytes(bad, nil); n != 0 || err == nil {
		t.Fatalf("corrupt payload accepted: n=%d err=%v", n, err)
	}
}

// oldSnapshotBytes frames records the way compaction did before it built
// frames in the log's reused buffer: each payload encoded from nil, then
// header and payload written one after the other.
func oldSnapshotBytes(state []walRecord) []byte {
	var b []byte
	for _, rec := range state {
		b = appendWALFrame(b, encodeWALRecord(rec))
	}
	return b
}

// TestCompactionBytesMatchFramedRecords compacts a churned shard —
// registrations across several 512-entry records, heartbeats that change
// state, removals that free IDs, re-registrations that reuse them — and
// expects the snapshot file to hold exactly each record's payload framed
// with its length and CRC, in order.
func TestCompactionBytesMatchFramedRecords(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{
		TTL: time.Minute, WAL: &WALOptions{Dir: dir, SyncInterval: -1, CompactEvery: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := testFleetDigests(1300, 4000)
	for lo := 0; lo < len(ds); lo += 100 {
		if resp := r.handle(Request{Op: "register_batch", Digests: ds[lo:min(lo+100, len(ds))]}); !resp.OK {
			t.Fatalf("register_batch: %s", resp.Error)
		}
	}
	for i := 0; i < len(ds); i += 7 {
		ds[i].State, ds[i].Load, ds[i].Gen, ds[i].UnixMS = "S3(cpu-unavail)", 0.97, ds[i].Gen+1, 5000
	}
	if resp := r.handle(Request{Op: "heartbeat_batch", Digests: ds}); !resp.OK {
		t.Fatalf("heartbeat_batch: %s", resp.Error)
	}
	var gone []string
	for i := 3; i < len(ds); i += 11 {
		gone = append(gone, ds[i].Name)
	}
	if resp := r.handle(Request{Op: "unregister", Names: gone}); !resp.OK {
		t.Fatalf("unregister: %s", resp.Error)
	}
	back := testFleetDigests(1400, 6000)[1300:]
	if resp := r.handle(Request{Op: "register_batch", Digests: back}); !resp.OK {
		t.Fatalf("register_batch: %s", resp.Error)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	state := r.snapshotRecordsLocked()
	if len(state) < 3 {
		t.Fatalf("%d snapshot records, want several 512-entry ones", len(state))
	}
	if err := r.wal.compact(state); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	if want := oldSnapshotBytes(state); !bytes.Equal(got, want) {
		t.Fatalf("snapshot is %d bytes, want the %d bytes of the framed records", len(got), len(want))
	}
}

// TestCompactAllocsConstant holds compaction's allocations to a constant
// — the snapshot's path, file and rename — whatever the number of records:
// every frame is built in the log's reused buffer. The bound is on 49
// records, a 25 000-node shard's snapshot, where framing each record from
// a fresh payload cost at least one allocation a record (548 in all).
func TestCompactAllocsConstant(t *testing.T) {
	w, _, err := openWAL(WALOptions{Dir: t.TempDir(), SyncInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close(false)
	state := make([]walRecord, 49)
	for i := range state {
		entries := make([]walEntry, 64)
		for j := range entries {
			entries[j] = walEntry{d: NodeDigest{Name: fmt.Sprintf("m%05d", i*64+j), Addr: "10.0.0.1:70",
				State: "S1(full)", Load: 0.25, Gen: 3, UnixMS: 4000}, lastSeenMS: 4001}
		}
		state[i] = walRecord{kind: walKindUpsert, entries: entries}
	}
	if err := w.compact(state); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := w.compact(state); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to compact %d records", allocs, len(state))
	const most = 12 // 9 on linux/amd64, go1.24
	if allocs > most {
		t.Fatalf("compaction of %d records allocated %.0f times, want at most %d", len(state), allocs, most)
	}
}

// encodeWALRecord encodes one record's payload into a fresh slice.
func encodeWALRecord(rec walRecord) []byte {
	return encodeWALRecordTo(nil, rec)
}
