package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

func randomTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := New(sim.Window{Start: 0, End: 92 * sim.Day}, sim.Calendar{StartWeekday: 2}, 20)
	states := []availability.State{availability.S3, availability.S4, availability.S5}
	for i := 0; i < n; i++ {
		start := time.Duration(rng.Int63n(int64(91 * sim.Day)))
		dur := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		tr.Add(Event{
			Machine:  MachineID(rng.Intn(20)),
			Start:    start,
			End:      start + dur,
			State:    states[rng.Intn(len(states))],
			AvailCPU: rng.Float64(),
			AvailMem: rng.Int63n(4 << 30),
		})
	}
	return tr
}

func tracesEqual(a, b *Trace) bool {
	if a.Span != b.Span || a.Calendar != b.Calendar || a.Machines != b.Machines {
		return false
	}
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

func TestCSVRoundTrip(t *testing.T) {
	tr := randomTrace(2, 300)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	events, err := ReadCSVEvents(&buf)
	if err != nil {
		t.Fatalf("ReadCSVEvents: %v", err)
	}
	if len(events) != len(tr.Events) {
		t.Fatalf("got %d events, want %d", len(events), len(tr.Events))
	}
	for i := range events {
		if events[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, events[i], tr.Events[i])
		}
	}
}

func TestCSVHeaderPresent(t *testing.T) {
	tr := randomTrace(3, 1)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != strings.Join(csvHeader, ",") {
		t.Errorf("CSV header = %q", first)
	}
}

func TestCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"machine,start_ns,end_ns,state,avail_cpu,avail_mem\nx,1,2,3,0.5,0",
		"machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,zz,2,3,0.5,0",
		"machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,1,2,1,0.5,0", // state S1
		"machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,5,2,3,0.5,0", // inverted
		"machine,start_ns,end_ns,state,avail_cpu,avail_mem\n0,1,2,3,0.5",   // short row
	}
	for i, c := range cases {
		if _, err := ReadCSVEvents(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestCSVReadsCRLF(t *testing.T) {
	tr := randomTrace(4, 50)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	events, err := ReadCSVEvents(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("CRLF CSV rejected: %v", err)
	}
	if len(events) != len(tr.Events) {
		t.Fatalf("got %d events from CRLF file, want %d", len(events), len(tr.Events))
	}
	for i := range events {
		if events[i] != tr.Events[i] {
			t.Fatalf("event %d differs after CRLF read: %+v vs %+v", i, events[i], tr.Events[i])
		}
	}
	// A final line with no trailing newline at all (as left by an editor
	// that strips it) must also read cleanly.
	bare := strings.TrimSuffix(buf.String(), "\n")
	if events, err := ReadCSVEvents(strings.NewReader(bare)); err != nil || len(events) != len(tr.Events) {
		t.Fatalf("newline-less final record: %d events, %v", len(events), err)
	}
}

func TestCSVTruncatedFinalRecord(t *testing.T) {
	tr := randomTrace(5, 20)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	// Cut the file mid-way through the last record: drop the final field
	// and everything after it.
	cut := full[:strings.LastIndex(strings.TrimSuffix(full, "\n"), ",")]
	events, err := ReadCSVEvents(strings.NewReader(cut))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated final record: err = %v, want ErrTruncated", err)
	}
	if len(events) != len(tr.Events)-1 {
		t.Fatalf("salvaged %d events, want %d", len(events), len(tr.Events)-1)
	}
	for i := range events {
		if events[i] != tr.Events[i] {
			t.Fatalf("salvaged event %d differs: %+v vs %+v", i, events[i], tr.Events[i])
		}
	}
}

func TestCSVShortRowMidFileIsCorruption(t *testing.T) {
	// A short row with more rows after it is corruption, not truncation:
	// no salvage, and the error must not claim ErrTruncated.
	const data = "machine,start_ns,end_ns,state,avail_cpu,avail_mem\n" +
		"0,1,2,3,0.5,0\n" +
		"0,1,2,3,0.5\n" +
		"0,5,6,3,0.5,0\n"
	events, err := ReadCSVEvents(strings.NewReader(data))
	if err == nil {
		t.Fatal("mid-file short row accepted")
	}
	if errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-file short row misreported as truncation: %v", err)
	}
	if events != nil {
		t.Fatalf("corruption should salvage nothing, got %d events", len(events))
	}
}

func TestCSVRejectsWrongHeader(t *testing.T) {
	const data = "machine,begin_ns,end_ns,state,avail_cpu,avail_mem\n0,1,2,3,0.5,0\n"
	if _, err := ReadCSVEvents(strings.NewReader(data)); err == nil {
		t.Error("CSV with a foreign header accepted")
	}
}

func TestCSVEmptyTrace(t *testing.T) {
	tr := New(sim.Window{End: sim.Day}, sim.Calendar{}, 1)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadCSVEvents(&buf)
	if err != nil {
		t.Fatalf("header-only CSV should parse: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("got %d events from empty trace", len(events))
	}
}
