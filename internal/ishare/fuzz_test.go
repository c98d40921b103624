package ishare

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// appendWALFrame appends one framed, checksummed payload to dst.
func appendWALFrame(dst, payload []byte) []byte {
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// FuzzProtocolDecode drives arbitrary bytes through the wire decoders for
// both directions of the protocol — every message (register_batch,
// heartbeat_batch, unregister, list, submit) rides the one
// readMessage. The invariants: no panic, no unbounded allocation past
// the message limit, and anything that decodes cleanly re-encodes to a
// value that decodes to the same thing (round-trip stability).
func FuzzProtocolDecode(f *testing.F) {
	seeds := []string{
		`{"op":"unregister","names":["m001","m002"]}`,
		`{"op":"register_batch","digests":[{"name":"m001","addr":"10.0.0.1:70","state":"S1(full)","load":0.1,"gen":1,"unix_ms":1700000000000},{"name":"m002","state":"S2(reduced)"}]}`,
		`{"op":"heartbeat_batch","digests":[{"name":"m001","gen":2,"unix_ms":1700000000555}]}`,
		`{"op":"heartbeat_batch","digests":[{"name":"m001","state":"S3(none)","gen":7}]}`,
		`{"op":"discover","limit":16}`,
		`{"op":"shardmap"}`,
		`{"op":"register_batch","digests":[{"name":"p1","addr":"10.0.0.2:70","state":"S1(full)","unix_ms":1700000001000}]}`,
		`{"op":"submit","job":{"id":"j-1","cpu_seconds":2.5}}`,
		`{"op":"list"}`,
		`{"ok":true,"nodes":[{"name":"m001","addr":"10.0.0.1:70","alive":true,"state":"S1(full)"}]}`,
		`{"ok":true,"shard_map":{"gen":4,"shards":["a:1","b:2"]}}`,
		`{"ok":false,"error":"registry overloaded, retry later","retry_after_ms":200}`,
		`{"ok":true,"missing":["m003","m009"]}`,
		`{"ok":true,"digests":[{"name":"p1","unix_ms":1}]}`,
		`{`, `null`, `[]`, `""`, "\x00\x01\x02", `{"op":"register_batch","digests":[{"name":"a","load":1e309}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const lim = 1 << 16
		if req, err := decodeRequest(data, lim); err == nil {
			enc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			again, err := decodeRequest(append(enc, '\n'), lim)
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v (%s)", err, enc)
			}
			if len(again.Digests) != len(req.Digests) || again.Op != req.Op || len(again.Names) != len(req.Names) {
				t.Fatalf("request round trip drifted:\n was %+v\n now %+v", req, again)
			}
		}
		if resp, err := decodeResponse(data, lim); err == nil {
			enc, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
			again, err := decodeResponse(append(enc, '\n'), lim)
			if err != nil {
				t.Fatalf("re-encoded response does not decode: %v (%s)", err, enc)
			}
			if again.OK != resp.OK || again.RetryAfterMS != resp.RetryAfterMS ||
				len(again.Nodes) != len(resp.Nodes) || len(again.Missing) != len(resp.Missing) {
				t.Fatalf("response round trip drifted:\n was %+v\n now %+v", resp, again)
			}
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to the WAL replay path. Invariants:
// no panic, no allocation driven by a corrupt length header, the reported
// good-offset never exceeds the input, and truncating to that offset
// replays the same record count cleanly (replay is a prefix function).
// Replayed into a shard, no record moves a live node's liveness stamp back,
// and the shard's snapshot replays to a shard with the same snapshot bytes.
func FuzzWALReplay(f *testing.F) {
	var log []byte
	for _, rec := range []walRecord{
		{kind: walKindUpsert, entries: []walEntry{
			{d: NodeDigest{Name: "m001", Addr: "127.0.0.1:9001", State: "S1(full)", Load: 0.5, Gen: 2, UnixMS: 1700000000000}, lastSeenMS: 1700000000000},
		}},
		{kind: walKindRemove, name: "m001"},
		{kind: walKindRefresh, stampMS: 1700000001000, names: []string{"m001", "m002"}},
	} {
		log = appendWALFrame(log, encodeWALRecord(rec))
	}
	f.Add(log)
	// A shard-map install as older shards logged it (kind 3, the generation,
	// the address count, the addresses): replay reads and drops it.
	shardMap := appendString(appendString(appendUvarint(appendVarint([]byte{walKindShardMap}, 3), 2), "a:1"), "b:2")
	f.Add(appendWALFrame(log, shardMap))
	f.Add(log[:len(log)-5])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add(appendWALFrame(nil, []byte{99}))
	// A refresh stamped before, at and after the entry's stamp, on both
	// sides of the Unix epoch.
	for _, stamp := range []int64{1700000000000, -5000} {
		up := encodeWALRecord(walRecord{kind: walKindUpsert, entries: []walEntry{
			{d: NodeDigest{Name: "m001", Addr: "127.0.0.1:9001", State: "S1(full)", Gen: 2, UnixMS: stamp}, lastSeenMS: stamp},
		}})
		for _, dt := range []int64{-1000, 0, 1000} {
			f.Add(appendWALFrame(appendWALFrame(nil, up),
				encodeWALRecord(walRecord{kind: walKindRefresh, stampMS: stamp + dt, names: []string{"m001"}})))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		n, off, _ := replayWALBytes(data, nil)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("good offset %d outside input of %d bytes", off, len(data))
		}
		n2, off2, err2 := replayWALBytes(data[:off], nil)
		if n2 != n || off2 != off || err2 != nil {
			t.Fatalf("truncation to good offset not clean: n=%d->%d off=%d->%d err=%v", n, n2, off, off2, err2)
		}

		r := &Registry{}
		replayWALBytes(data[:off], func(rec walRecord) {
			before := make(map[string]int64, r.ids.live)
			for name, id := range nameIDs(r) {
				before[name] = r.entries[id].seen
			}
			r.applyWALRecord(rec)
			for name, id := range nameIDs(r) {
				if was, ok := before[name]; ok && r.entries[id].seen < was {
					t.Fatalf("record kind %d moved %q's stamp back from %d to %d", rec.kind, name, was, r.entries[id].seen)
				}
			}
		})
		snapshot := func(r *Registry) []byte {
			var b []byte
			for _, rec := range r.snapshotRecordsLocked() {
				b = appendWALFrame(b, encodeWALRecord(rec))
			}
			return b
		}
		first := snapshot(r)
		again := &Registry{}
		if _, _, err := replayWALBytes(first, again.applyWALRecord); err != nil {
			t.Fatalf("snapshot does not replay: %v", err)
		}
		if second := snapshot(again); !bytes.Equal(first, second) {
			t.Fatalf("snapshot is not a fixed point of replay: %d bytes, then %d", len(first), len(second))
		}
	})
}
