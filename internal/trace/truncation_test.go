package trace

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDecoderTruncatedAtEveryOffset cuts a valid stream at every byte
// offset and asserts crash-recovery semantics at each: the decoder yields
// exactly the events whose records are complete — always a prefix of the
// original, never a garbled record — and then reports ErrTruncated, unless
// the cut lands precisely on a record boundary, where a clean io.EOF is the
// only honest answer (the stream is indistinguishable from a shorter one).
func TestDecoderTruncatedAtEveryOffset(t *testing.T) {
	tr := randomTrace(17, 60)
	tr.Sort()

	// Re-encode event by event to learn every record boundary offset.
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Span: tr.Span, Calendar: tr.Calendar, Machines: tr.Machines})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	headerLen := buf.Len()
	boundary := map[int]bool{headerLen: true}
	for _, ev := range tr.Events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		boundary[buf.Len()] = true
	}
	full := buf.Bytes()

	for off := 0; off < len(full); off++ {
		cut := full[:off]
		dec, err := NewDecoder(bytes.NewReader(cut))
		if off < headerLen {
			if err == nil {
				t.Fatalf("offset %d: decoder accepted a truncated header", off)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("offset %d: header error %v does not wrap ErrTruncated", off, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("offset %d: NewDecoder: %v", off, err)
		}
		n := 0
		for {
			ev, err := dec.Next()
			if err != nil {
				if boundary[off] {
					if err != io.EOF {
						t.Fatalf("offset %d is a record boundary, want io.EOF, got %v", off, err)
					}
				} else if !errors.Is(err, ErrTruncated) {
					t.Fatalf("offset %d: error %v does not wrap ErrTruncated", off, err)
				}
				break
			}
			if n >= len(tr.Events) || ev != tr.Events[n] {
				t.Fatalf("offset %d: decoded event %d = %+v is not a prefix of the original", off, n, ev)
			}
			n++
		}
	}
}

// TestReadBinaryPropagatesTruncation pins that the whole-trace reader
// surfaces the typed error, so callers salvaging a crashed shard can tell
// truncation from corruption without string matching.
func TestReadBinaryPropagatesTruncation(t *testing.T) {
	tr := randomTrace(18, 20)
	tr.Sort()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadBinary on a cut stream: %v, want ErrTruncated", err)
	}
}

// TestAnalyzeBlocksRefusesTruncation cuts a v2 shard mid-header, inside the
// first block's payload, mid-file, exactly where the directory would start
// and inside the footer. The analyzer must refuse each one with an error
// that wraps ErrTruncated and names the file, at any worker count, instead
// of reporting the salvaged prefix as the whole trace.
func TestAnalyzeBlocksRefusesTruncation(t *testing.T) {
	tr := randomTrace(67, 4000)
	tr.Sort()
	full := v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 128})
	whole, err := NewBlockFileBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	first, last := whole.Block(0), whole.Block(whole.NumBlocks()-1)
	dirOff := int(last.Offset + last.StoredLen)
	cuts := map[string]int{
		"mid-magic":         2,
		"mid-header":        7,
		"mid-first-payload": int(first.Offset + first.StoredLen/2),
		"mid-file":          len(full) / 2,
		"directory-missing": dirOff,
		"mid-footer":        len(full) - 3,
	}
	dir := t.TempDir()
	for name, cut := range cuts {
		path := filepath.Join(dir, name+".fgcb")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 0} {
			a, err := AnalyzeBlockPaths([]string{path}, workers)
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s (cut %d of %d), workers %d: analyzer %v, err %v; want ErrTruncated", name, cut, len(full), workers, a, err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("%s: error %q does not name the file", name, err)
			}
		}
		if bf, err := NewBlockFileBytes(full[:cut]); err == nil {
			if _, err := AnalyzeBlockFiles([]*BlockFile{whole, bf}, 2); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: AnalyzeBlockFiles over salvaged bytes: %v, want ErrTruncated", name, err)
			}
		}
	}
}

// TestReadFile drives the loader the command-line tools share over both
// codec versions and over every way a file can be wrong; each failure must
// name the file and say precisely what is wrong with it.
func TestReadFile(t *testing.T) {
	tr := randomTrace(19, 300)
	tr.Sort()
	var v1 bytes.Buffer
	if err := tr.WriteBinary(&v1); err != nil {
		t.Fatal(err)
	}
	v2 := v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 64})
	cases := []struct {
		name    string
		data    []byte
		wantIs  error  // errors.Is target, nil = none
		wantMsg string // substring of the error, "" = must load
	}{
		{name: "v1", data: v1.Bytes()},
		{name: "v2", data: v2},
		{name: "v1-cut-mid-record", data: v1.Bytes()[:v1.Len()-3], wantIs: ErrTruncated, wantMsg: "truncated"},
		{name: "v2-cut-mid-block", data: v2[:len(v2)/2], wantIs: ErrTruncated, wantMsg: "reading block"},
		{name: "cut-mid-header", data: v2[:6], wantIs: ErrTruncated, wantMsg: "reading span"},
		{name: "empty", data: nil, wantIs: ErrTruncated, wantMsg: "reading codec magic"},
		{name: "json", data: []byte(`{"span_start_ns":0,"events":[]}`), wantMsg: "bad codec magic"},
		{name: "future-version", data: append([]byte("FGCB\x09"), v2[5:]...), wantMsg: "unsupported codec version 9"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".fgcb")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if c.wantMsg == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if !tracesEqual(tr, got) {
				t.Errorf("%s: loaded trace differs from the one written", c.name)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: loaded %d events, want an error", c.name, len(got.Events))
			continue
		}
		if c.wantIs != nil && !errors.Is(err, c.wantIs) {
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.wantIs)
		}
		if !strings.Contains(err.Error(), c.wantMsg) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q, want it to name %s and contain %q", c.name, err, path, c.wantMsg)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.fgcb")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
}
