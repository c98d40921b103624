package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the first line of the CSV encoding. Times are nanoseconds of
// virtual time; state is the numeric code (3, 4, 5).
var csvHeader = []string{"machine", "start_ns", "end_ns", "state", "avail_cpu", "avail_mem"}

// WriteCSV writes the trace events as CSV with a metadata-free header line.
// Span/calendar/machine-count metadata travel in the binary codec's header;
// CSV is a write-only export of the event list for inspection.
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
