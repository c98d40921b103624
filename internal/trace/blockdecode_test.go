package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/availability"
)

// storedBlock is what a block of an in-memory file stores.
type storedBlock struct {
	codec    byte
	stream   []byte // the deflate stream inside the payload; nil for a raw block
	inflated int    // the length stream inflates to
	streamAt int64  // where in the file stream starts
	rawLenAt int64  // where in the file the header's rawLen varint starts
}

func blockStream(t *testing.T, bf *BlockFile, i int) storedBlock {
	t.Helper()
	m := bf.Block(i)
	b := bf.data[m.Offset+1 : m.Offset+m.StoredLen]
	meta, codec, rawLen, payloadLen, n, err := decodeBlockHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	lens := len(binary.AppendUvarint(binary.AppendUvarint(nil, rawLen), payloadLen))
	sb := storedBlock{codec: codec, streamAt: m.Offset + 1 + int64(n), rawLenAt: m.Offset + 1 + int64(n-lens)}
	switch codec {
	case colCodecFlate:
		sb.stream, sb.inflated = b[n:], int(rawLen)
	case colCodecSplit:
		sb.stream, sb.inflated = b[n:len(b)-8*meta.Count], int(rawLen)-8*meta.Count
	}
	return sb
}

// flateFloor is what compress/flate itself allocates to inflate stream
// through a warm reader that is Reset, not rebuilt: nothing, unless the
// stream's Huffman codes run past 9 bits, for which the library makes fresh
// overflow tables per deflate block (huffmanDecoder.init). No caller can
// avoid those short of another inflater.
func flateFloor(stream []byte, inflated int) float64 {
	var src bytes.Reader
	fr := flate.NewReader(&src)
	dst := make([]byte, inflated)
	run := func() {
		src.Reset(stream)
		fr.(flate.Resetter).Reset(&src, nil)
		io.ReadFull(fr, dst)
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// TestDecodeBlockWarmAllocs holds the tentpole's first claim: once a
// BlockBuf has seen the largest block, DecodeBlock allocates nothing of its
// own — no flate reader, no bytes.Reader, no column scratch, no events — on
// a raw, a flate and a split block. What it may still count is the library's
// floor for that very stream (see flateFloor), which is 0 on the tidy trace
// and is measured, not assumed, on the noisy one.
func TestDecodeBlockWarmAllocs(t *testing.T) {
	noisy := randomTrace(21, 3000)
	noisy.Sort()
	// Every machine fails on the hour for a quarter of an hour with the
	// same memory free: few distinct bytes, so short Huffman codes.
	tidy := New(noisy.Span, noisy.Calendar, 4)
	for m := 0; m < tidy.Machines; m++ {
		for h := 0; h < 600; h++ {
			at := time.Duration(h) * time.Hour
			tidy.Add(mkEvent(MachineID(m), at, at+15*time.Minute, availability.S3))
		}
	}
	cases := []struct {
		name      string
		tr        *Trace
		opts      BlockWriterOptions
		codec     byte
		wantFloor float64 // -1: whatever the library's floor is
	}{
		{"raw", noisy, BlockWriterOptions{BlockSize: 512, Compression: CompressionNone}, colCodecRaw, 0},
		{"flate", noisy, BlockWriterOptions{BlockSize: 512, Compression: CompressionFlate}, colCodecFlate, -1},
		{"split-tidy", tidy, BlockWriterOptions{BlockSize: 512}, colCodecSplit, 0},
		{"split-noisy", noisy, BlockWriterOptions{BlockSize: 512}, colCodecSplit, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bf, err := NewBlockFileBytes(v2Bytes(t, tc.tr, &tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			var buf BlockBuf
			for i := 0; i < bf.NumBlocks(); i++ { // warm: every scratch at its largest
				if _, err := bf.DecodeBlock(i, &buf); err != nil {
					t.Fatal(err)
				}
			}
			sb := blockStream(t, bf, 0)
			if sb.codec != tc.codec {
				t.Fatalf("block 0 has codec %d, the case wants %d", sb.codec, tc.codec)
			}
			floor := 0.0
			if sb.stream != nil {
				floor = flateFloor(sb.stream, sb.inflated)
			}
			if tc.wantFloor >= 0 && floor != tc.wantFloor {
				t.Fatalf("compress/flate's own floor on this stream is %v allocs, the case assumes %v", floor, tc.wantFloor)
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := bf.DecodeBlock(0, &buf); err != nil {
					t.Fatal(err)
				}
			})
			if got != floor {
				t.Errorf("warm DecodeBlock: %v allocs, want %v (the library's floor for this stream)", got, floor)
			}
		})
	}
}

// TestReusedInflaterAfterCorruptBlock decodes a corrupt block and then a
// good one through the same BlockBuf: the corrupt one fails with the error
// it always had, and the Reset reader carries nothing of the failure over.
func TestReusedInflaterAfterCorruptBlock(t *testing.T) {
	tr := randomTrace(23, 2000)
	tr.Sort()
	for _, comp := range []Compression{CompressionAuto, CompressionFlate} {
		good := v2Bytes(t, tr, &BlockWriterOptions{BlockSize: 512, Compression: comp})
		clean, err := NewBlockFileBytes(good)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.DecodeBlock(1, &BlockBuf{})
		if err != nil {
			t.Fatal(err)
		}
		sb := blockStream(t, clean, 0)
		if sb.stream == nil || good[sb.rawLenAt]&0x7f == 0 || good[sb.rawLenAt]&0x7f == 0x7f {
			t.Fatalf("compression %d: block 0 is raw, or its rawLen cannot move by one in place", comp)
		}
		cases := []struct {
			name    string
			corrupt func(b []byte)
			wantErr string
		}{
			// One byte more declared than the stream holds: the stream ends early.
			{"stream-too-short", func(b []byte) { b[sb.rawLenAt]++ }, "trace: inflating block: unexpected EOF"},
			// One byte fewer declared: the stream runs past it.
			{"stream-too-long", func(b []byte) { b[sb.rawLenAt]-- }, "trace: block inflates past its declared size"},
			// The stream itself damaged half-way: whichever of the two it
			// trips first, it is the inflater that refuses it.
			{"stream-damaged", func(b []byte) {
				for i := len(sb.stream) / 2; i < len(sb.stream); i++ {
					b[sb.streamAt+int64(i)] ^= 0xa5
				}
			}, "inflat"},
		}
		for _, tc := range cases {
			bad := bytes.Clone(good)
			tc.corrupt(bad)
			bf, err := NewBlockFileBytes(bad)
			if err != nil || bf.Truncated() {
				t.Fatalf("%s: corrupt file did not open on its directory: %v", tc.name, err)
			}
			var buf BlockBuf
			if _, err := bf.DecodeBlock(0, &buf); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("compression %d, %s: block 0 error = %v, want one with %q", comp, tc.name, err, tc.wantErr)
			}
			got, err := bf.DecodeBlock(1, &buf)
			if err != nil {
				t.Fatalf("compression %d, %s: good block after a corrupt one: %v", comp, tc.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("compression %d, %s: good block decoded %d events, want %d", comp, tc.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("compression %d, %s: good block event %d = %+v, want %+v", comp, tc.name, i, got[i], want[i])
				}
			}
		}
	}
}
