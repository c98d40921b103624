package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/availability"
	"repro/internal/sim"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(11, 700)
	tr.Sort()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Error("binary round trip lost data")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	tr := New(sim.Window{Start: 0, End: 3 * sim.Day}, sim.Calendar{StartWeekday: 4}, 5)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !tracesEqual(tr, got) {
		t.Errorf("empty round trip changed metadata: %+v vs %+v", tr, got)
	}
}

// TestBinarySmallerThanCSV pins the point of the codec: on a sorted trace
// the delta encoding undercuts the textual formats substantially.
func TestBinarySmallerThanCSV(t *testing.T) {
	tr := randomTrace(12, 5000)
	tr.Sort()
	var bin, csv bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= csv.Len() {
		t.Errorf("binary encoding (%d bytes) should be smaller than CSV (%d bytes)", bin.Len(), csv.Len())
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"FGC",
		"NOPE....",
		"FGCB\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", // absurd version
	}
	for _, in := range cases {
		if _, err := NewDecoder(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("decoder accepted %q", in)
		}
	}
}

func TestDecoderRejectsTruncation(t *testing.T) {
	tr := randomTrace(13, 50)
	tr.Sort()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: the stream must fail with a non-EOF error rather
	// than silently shortening the trace.
	cut := buf.Bytes()[:buf.Len()-3]
	dec, err := NewDecoder(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = dec.Next(); err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Error("truncated stream ended with a clean EOF")
	}
}

func TestDecoderRejectsOutOfRangeMachine(t *testing.T) {
	tr := New(sim.Window{Start: 0, End: sim.Day}, sim.Calendar{}, 2)
	tr.Add(Event{Machine: 5, Start: 1, End: 2, State: availability.S3})
	var buf bytes.Buffer
	// Encode with a header claiming 2 machines but an event on machine 5.
	enc, err := NewEncoder(&buf, Header{Span: tr.Span, Calendar: tr.Calendar, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(tr.Events[0]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err == nil {
		t.Error("event outside the header's machine range accepted")
	}
}

func TestEncoderRejectsInvalidEvent(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Span: sim.Window{End: sim.Day}, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Machine: 0, Start: 5, End: 2, State: availability.S3}); err == nil {
		t.Error("inverted event accepted")
	}
	if err := enc.Write(Event{Machine: 0, Start: 1, End: 2, State: availability.S1}); err == nil {
		t.Error("non-failure state accepted")
	}
}

func TestEncoderClosed(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Span: sim.Window{End: sim.Day}, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Write(Event{Machine: 0, Start: 1, End: 2, State: availability.S3}); err == nil {
		t.Error("write after Close accepted")
	}
}
