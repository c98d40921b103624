package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
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

// ReadCSVEvents is WriteCSV's round-trip oracle: it parses the events a
// CSV export holds. No binary reads CSV; the tests and FuzzReadCSVEvents
// hold the export to this reader.
//
// Files that went through Windows tooling read cleanly: encoding/csv strips
// CRLF line endings, and the header check below tolerates a stray trailing
// \r. A file cut off mid-record (a crashed writer, a partial download)
// returns the events salvaged before the cut together with an error
// wrapping ErrTruncated, as a Truncated BlockFile yields its complete
// blocks; a short row in the middle of the file is corruption, not
// truncation, and reports a plain error.
func ReadCSVEvents(r io.Reader) ([]Event, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	hdr, err := cr.Read()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty CSV (missing header)")
		}
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	for i, name := range csvHeader {
		if strings.TrimSuffix(hdr[i], "\r") != name {
			return nil, fmt.Errorf("trace: CSV header field %d is %q, want %q", i+1, hdr[i], name)
		}
	}
	events := make([]Event, 0, 1024)
	for row := 2; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return events, nil
		}
		var fieldErr *csv.ParseError
		if errors.As(err, &fieldErr) && fieldErr.Err == csv.ErrFieldCount {
			// A short row is truncation only if it is the last thing in the
			// file; anything after it means the file is corrupt instead.
			if _, next := cr.Read(); next == io.EOF {
				return events, fmt.Errorf("trace: CSV row %d cut short: %w", row, ErrTruncated)
			}
			return nil, fmt.Errorf("trace: CSV row %d: %w", row, err)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV: %w", err)
		}
		e, err := parseCSVRow(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV row %d: %w", row, err)
		}
		events = append(events, e)
	}
}

func parseCSVRow(row []string) (Event, error) {
	var e Event
	m, err := strconv.Atoi(row[0])
	if err != nil {
		return e, fmt.Errorf("machine: %w", err)
	}
	start, err := strconv.ParseInt(row[1], 10, 64)
	if err != nil {
		return e, fmt.Errorf("start: %w", err)
	}
	end, err := strconv.ParseInt(row[2], 10, 64)
	if err != nil {
		return e, fmt.Errorf("end: %w", err)
	}
	st, err := strconv.Atoi(row[3])
	if err != nil {
		return e, fmt.Errorf("state: %w", err)
	}
	cpu, err := strconv.ParseFloat(row[4], 64)
	if err != nil {
		return e, fmt.Errorf("avail_cpu: %w", err)
	}
	mem, err := strconv.ParseInt(row[5], 10, 64)
	if err != nil {
		return e, fmt.Errorf("avail_mem: %w", err)
	}
	e = Event{
		Machine:  MachineID(m),
		Start:    sim.Time(start),
		End:      sim.Time(end),
		State:    availability.State(st),
		AvailCPU: cpu,
		AvailMem: mem,
	}
	return e, e.Validate()
}
