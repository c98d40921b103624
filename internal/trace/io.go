package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/availability"
	"repro/internal/sim"
)

// csvHeader is the first line of the CSV encoding. Times are nanoseconds of
// virtual time; state is the numeric code (3, 4, 5).
var csvHeader = []string{"machine", "start_ns", "end_ns", "state", "avail_cpu", "avail_mem"}

// WriteCSV writes the trace events as CSV with a metadata-free header line.
// Span/calendar/machine-count metadata travel in the binary codec's header;
// CSV is the light-weight interchange format for the event list itself.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, e := range t.Events {
		rec := []string{
			strconv.Itoa(int(e.Machine)),
			strconv.FormatInt(int64(e.Start), 10),
			strconv.FormatInt(int64(e.End), 10),
			strconv.Itoa(int(e.State)),
			strconv.FormatFloat(e.AvailCPU, 'g', -1, 64),
			strconv.FormatInt(e.AvailMem, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing CSV event: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVEvents parses events written by WriteCSV. Rows are consumed
// incrementally — one record buffer is reused across rows — so ingest
// memory is the returned slice, not a second copy of the whole file.
//
// Files that went through Windows tooling read cleanly: encoding/csv strips
// CRLF line endings, and the header check below tolerates a stray trailing
// \r. A file cut off mid-record (a crashed writer, a partial download)
// returns the events salvaged before the cut together with an error
// wrapping ErrTruncated, mirroring the binary decoder's salvageable-prefix
// semantics; a short row in the middle of the file is corruption, not
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
