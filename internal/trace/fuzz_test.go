package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

// FuzzReadCSVEvents checks the CSV oracle never panics and that whatever
// it accepts, WriteCSV writes back losslessly.
func FuzzReadCSVEvents(f *testing.F) {
	var buf bytes.Buffer
	if err := randomTrace(1, 20).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,1,2,3,0.5,0")
	f.Add("")
	f.Add("garbage\nmore garbage")
	f.Add("machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,9223372036854775807,2,3,0.5,0")

	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadCSVEvents(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must produce valid events that survive re-encoding.
		tr := &Trace{}
		for _, e := range events {
			if err := e.Validate(); err != nil {
				t.Fatalf("accepted invalid event %+v: %v", e, err)
			}
			tr.Events = append(tr.Events, e)
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("re-encoding accepted events failed: %v", err)
		}
		again, err := ReadCSVEvents(&out)
		if err != nil {
			t.Fatalf("re-parsing own output failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
	})
}

// FuzzReadBinary checks the loader of a whole file, ReadBlocks, never
// panics on hostile input and that what it accepts validates and
// round-trips bit-exactly through WriteBlocks: anything read can be written
// back. The committed corpus entry is a v1 header, refused by its version.
func FuzzReadBinary(f *testing.F) {
	tr := randomTrace(3, 30)
	tr.Sort()
	var buf bytes.Buffer
	if err := tr.WriteBlocks(&buf, &BlockWriterOptions{BlockSize: 8}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("FGCB"))
	f.Add([]byte("FGCB\x02\x00\x00\x00\x00"))
	f.Add(buf.Bytes()[:buf.Len()/2])

	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := ReadBlocks(bytes.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("ReadBlocks accepted an invalid trace: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteBlocks(&out, nil); err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		tr2, err := ReadBlocks(&out)
		if err != nil {
			t.Fatalf("re-parsing own output failed: %v", err)
		}
		if !tracesEqual(tr, tr2) {
			t.Fatal("round trip changed the trace")
		}
	})
}

// FuzzBlockFileBytes feeds raw bytes to the one read path — the header, the
// directory and the random-access block decode (FuzzColBlockRoundTrip
// encodes valid events; FuzzReadBinary stops at the whole-file loader):
// NewBlockFileBytes, then every consumer of a BlockFile.
// Each must return an error or a result that validates; none may panic or
// size an allocation from a count nothing has checked. The seeds are a good
// file in each codec, one whose directory lies about every block's count,
// and a cut one — small ones, or the engine spends a short run minimizing
// its first find instead of mutating.
func FuzzBlockFileBytes(f *testing.F) {
	// Forty scattered events, which the default codec stores raw at this
	// size, then forty on the hour on the last machine, which it splits.
	tr := randomTrace(7, 40)
	for h := 0; h < 40; h++ {
		at := time.Duration(h) * time.Hour
		tr.Add(mkEvent(19, at, at+10*time.Minute, availability.S4))
	}
	tr.Sort()
	var good []byte
	for _, c := range []Compression{CompressionFlate, CompressionNone, CompressionAuto} {
		var buf bytes.Buffer
		if err := tr.WriteBlocks(&buf, &BlockWriterOptions{BlockSize: 40, Compression: c}); err != nil {
			f.Fatal(err)
		}
		good = buf.Bytes()
		f.Add(good)
	}
	f.Add(ForgeDirectoryCounts(good, math.MaxInt32))
	f.Add(good[:len(good)*2/3])

	f.Fuzz(func(t *testing.T, input []byte) {
		bf, err := NewBlockFileBytes(input)
		if err != nil {
			return
		}
		if got, err := CollectEvents(bf); err == nil {
			if err := got.Validate(); err != nil {
				t.Fatalf("CollectEvents accepted an invalid trace: %v", err)
			}
		}
		// The analyzer and the index keep state per machine, per day and per
		// hour of what the header claims, by design; a caller sizes those
		// with the header in hand, so the target does too and leaves fleets
		// and spans no few-KB input describes honestly to that caller.
		h := bf.Header()
		if h.Machines < 1 || h.Machines > 32 || h.Span.Start < -400*sim.Day || h.Span.End > 400*sim.Day {
			return
		}
		if a, err := AnalyzeBlockFiles([]*BlockFile{bf}, 1); err == nil {
			a.Table2()
			a.HourlyOccurrences(sim.Weekday)
			a.IntervalECDF(sim.Weekend)
		}
		ix := NewBlockIndex(bf)
		for m := 0; m < h.Machines; m++ {
			if e, ok := ix.FirstOverlap(MachineID(m), h.Span); ok {
				if err := e.Validate(); err != nil || e.Machine != MachineID(m) {
					t.Fatalf("the index answered machine %d with %+v (%v)", m, e, err)
				}
			}
		}
	})
}
