package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

func span(d time.Duration) sim.Window { return sim.Window{Start: 0, End: d} }

func mkEvent(m MachineID, start, end time.Duration, st availability.State) Event {
	return Event{Machine: m, Start: start, End: end, State: st, AvailCPU: 0.5, AvailMem: 1 << 30}
}

func TestEventValidate(t *testing.T) {
	good := mkEvent(0, time.Hour, 2*time.Hour, availability.S3)
	if err := good.Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	if err := mkEvent(0, time.Hour, 2*time.Hour, availability.S1).Validate(); err == nil {
		t.Error("available-state event should be rejected")
	}
	if err := mkEvent(0, 2*time.Hour, time.Hour, availability.S3).Validate(); err == nil {
		t.Error("inverted event should be rejected")
	}
	if got := good.Duration(); got != time.Hour {
		t.Errorf("Duration = %v", got)
	}
	if got := good.Cause(); got != availability.CauseCPU {
		t.Errorf("Cause = %v", got)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := New(span(sim.Day), sim.Calendar{}, 2)
	tr.Add(mkEvent(0, time.Hour, 2*time.Hour, availability.S3))
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	tr.Add(mkEvent(5, time.Hour, 2*time.Hour, availability.S3))
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range machine should be rejected")
	}
}

func TestIntervalExtraction(t *testing.T) {
	tr := New(span(10*time.Hour), sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 2*time.Hour, 3*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 6*time.Hour, 7*time.Hour, availability.S5))
	ivs := tr.Intervals(0)
	want := []Interval{
		{Machine: 0, Start: 0, End: 2 * time.Hour},
		{Machine: 0, Start: 3 * time.Hour, End: 6 * time.Hour},
		{Machine: 0, Start: 7 * time.Hour, End: 10 * time.Hour},
	}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals, want %d: %+v", len(ivs), len(want), ivs)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, ivs[i], want[i])
		}
	}
}

func TestIntervalExtractionOverlapsAndEdges(t *testing.T) {
	tr := New(span(10*time.Hour), sim.Calendar{}, 1)
	// Overlapping events coalesce.
	tr.Add(mkEvent(0, 2*time.Hour, 4*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 3*time.Hour, 5*time.Hour, availability.S4))
	// Event straddling the span end is clipped.
	tr.Add(mkEvent(0, 9*time.Hour, 12*time.Hour, availability.S3))
	ivs := tr.Intervals(0)
	want := []Interval{
		{Machine: 0, Start: 0, End: 2 * time.Hour},
		{Machine: 0, Start: 5 * time.Hour, End: 9 * time.Hour},
	}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals: %+v", len(ivs), ivs)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, ivs[i], want[i])
		}
	}
}

func TestIntervalsNoEvents(t *testing.T) {
	tr := New(span(5*time.Hour), sim.Calendar{}, 1)
	ivs := tr.Intervals(0)
	if len(ivs) != 1 || ivs[0].Duration() != 5*time.Hour {
		t.Errorf("eventless machine should yield one full-span interval: %+v", ivs)
	}
}

// Property: intervals and coalesced events partition the span exactly —
// total availability + total unavailability == span, and intervals never
// overlap events.
func TestIntervalPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		spanLen := time.Duration(1+rng.Intn(100)) * time.Hour
		tr := New(span(spanLen), sim.Calendar{}, 1)
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			start := time.Duration(rng.Int63n(int64(spanLen)))
			dur := time.Duration(rng.Int63n(int64(3 * time.Hour)))
			tr.Add(mkEvent(0, start, start+dur, availability.S3))
		}
		ivs := tr.Intervals(0)
		var availTotal time.Duration
		prevEnd := sim.Time(-1)
		for _, iv := range ivs {
			if iv.Duration() <= 0 {
				t.Fatalf("non-positive interval %+v", iv)
			}
			if iv.Start < prevEnd {
				t.Fatalf("overlapping intervals at %+v", iv)
			}
			prevEnd = iv.End
			availTotal += iv.Duration()
		}
		// Compute unavailability directly from coalesced clipped events.
		evs := coalesce(tr.MachineEvents(0))
		var unavail time.Duration
		for _, e := range evs {
			s, en := e.Start, e.End
			if s < 0 {
				s = 0
			}
			if en > spanLen {
				en = spanLen
			}
			if en > s {
				unavail += en - s
			}
		}
		if availTotal+unavail != spanLen {
			t.Fatalf("partition broken: avail %v + unavail %v != span %v", availTotal, unavail, spanLen)
		}
	}
}

func TestCountByCauseAndTable2(t *testing.T) {
	tr := New(span(10*sim.Day), sim.Calendar{}, 2)
	// Machine 0: 3 CPU, 1 memory, 2 URR (one reboot-fast, one long).
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 3*time.Hour, 4*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 5*time.Hour, 6*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 7*time.Hour, 8*time.Hour, availability.S4))
	tr.Add(mkEvent(0, 9*time.Hour, 9*time.Hour+30*time.Second, availability.S5))
	tr.Add(mkEvent(0, 11*time.Hour, 12*time.Hour, availability.S5))
	// Machine 1: 1 CPU.
	tr.Add(mkEvent(1, 1*time.Hour, 2*time.Hour, availability.S3))

	counts := tr.analyze().CountByCause()
	if c := counts[0]; c.Total != 6 || c.CPU != 3 || c.Memory != 1 || c.URR != 2 {
		t.Errorf("machine 0 counts = %+v", c)
	}
	if c := counts[1]; c.Total != 1 || c.CPU != 1 {
		t.Errorf("machine 1 counts = %+v", c)
	}

	tb := tr.MakeTable2()
	if tb.Total != (Range{1, 6}) {
		t.Errorf("Total range = %+v", tb.Total)
	}
	if tb.CPU != (Range{1, 3}) {
		t.Errorf("CPU range = %+v", tb.CPU)
	}
	if tb.URR != (Range{0, 2}) {
		t.Errorf("URR range = %+v", tb.URR)
	}
	if tb.RebootShare != 0.5 {
		t.Errorf("RebootShare = %v, want 0.5", tb.RebootShare)
	}
	// Percentages: machine 0 CPU 50%, machine 1 CPU 100%.
	if tb.CPUPct[0] != 0.5 || tb.CPUPct[1] != 1.0 {
		t.Errorf("CPUPct = %+v", tb.CPUPct)
	}
}

// TestMakeTable2NoFailures guards the pct helper: a machine with zero
// events must report 0% shares, not NaN from a 0/0 division.
func TestMakeTable2NoFailures(t *testing.T) {
	tr := New(span(10*sim.Day), sim.Calendar{}, 3)
	tb := tr.MakeTable2()
	for name, r := range map[string][2]float64{
		"CPUPct":    tb.CPUPct,
		"MemoryPct": tb.MemoryPct,
		"URRPct":    tb.URRPct,
	} {
		for _, v := range r {
			if math.IsNaN(v) {
				t.Errorf("%s = %v contains NaN for an event-free trace", name, r)
			}
		}
	}
	if tb.Total != (Range{0, 0}) {
		t.Errorf("Total range = %+v, want {0 0}", tb.Total)
	}
	if got := pct(0, 0); got != 0 {
		t.Errorf("pct(0, 0) = %v, want 0", got)
	}
}

func TestHourlyOccurrences(t *testing.T) {
	// Two weekdays (epoch Monday). Event on day 0 spanning 10:30-12:30
	// counts in hours 10, 11, 12.
	tr := New(span(2*sim.Day), sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 10*time.Hour+30*time.Minute, 12*time.Hour+30*time.Minute, availability.S3))
	sums := tr.HourlyOccurrences(sim.Weekday)
	for h := 0; h < 24; h++ {
		wantMax := 0.0
		if h >= 10 && h <= 12 {
			wantMax = 1.0
		}
		if sums[h].Max != wantMax {
			t.Errorf("hour %d max = %v, want %v", h, sums[h].Max, wantMax)
		}
	}
	// Two weekdays observed: mean for hour 10 is 0.5 (day 1 had none).
	if sums[10].Mean != 0.5 {
		t.Errorf("hour 10 mean = %v, want 0.5", sums[10].Mean)
	}
	if sums[10].Count != 2 {
		t.Errorf("hour 10 day count = %d, want 2", sums[10].Count)
	}
	// Weekend summary sees no days at all in a Mon-Tue span.
	wk := tr.HourlyOccurrences(sim.Weekend)
	if wk[10].Count != 0 {
		t.Errorf("weekend day count = %d, want 0", wk[10].Count)
	}
}

func TestIntervalECDFByDayType(t *testing.T) {
	// Span one week starting Monday; put one event on Saturday so the
	// weekend has a short and a long interval.
	tr := New(span(7*sim.Day), sim.Calendar{}, 1)
	sat := 5 * sim.Day
	tr.Add(mkEvent(0, sat+2*time.Hour, sat+3*time.Hour, availability.S3))
	wd, we := tr.IntervalECDFs()
	// Weekday: the single long interval [0, Sat+2h) starts Monday.
	if wd.N() != 1 {
		t.Errorf("weekday intervals = %d, want 1", wd.N())
	}
	// Weekend: the interval starting Sat+3h.
	if we.N() != 1 {
		t.Errorf("weekend intervals = %d, want 1", we.N())
	}
	if got := we.Mean(); got != float64(7*sim.Day-(sat+3*time.Hour))/float64(time.Hour) {
		t.Errorf("weekend interval mean = %v hours", got)
	}
}

func TestCloneFilterBefore(t *testing.T) {
	tr := New(span(sim.Day), sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 5*time.Hour, 6*time.Hour, availability.S5))

	c := tr.Clone()
	c.Events[0].Machine = 9
	if tr.Events[0].Machine != 0 {
		t.Error("Clone must deep-copy events")
	}

	f := tr.Filter(func(e Event) bool { return e.State == availability.S3 })
	if len(f.Events) != 1 || f.Events[0].State != availability.S3 {
		t.Errorf("Filter result = %+v", f.Events)
	}

	b := tr.Before(3 * time.Hour)
	if len(b.Events) != 1 || b.Span.End != 3*time.Hour {
		t.Errorf("Before result: %d events span %v", len(b.Events), b.Span)
	}
}

func TestMachineDays(t *testing.T) {
	tr := New(span(92*sim.Day), sim.Calendar{}, 20)
	if got := tr.MachineDays(); got != 1840 {
		t.Errorf("MachineDays = %v, want 1840", got)
	}
}

func TestSort(t *testing.T) {
	tr := New(span(sim.Day), sim.Calendar{}, 2)
	tr.Add(mkEvent(1, 1*time.Hour, 2*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 5*time.Hour, 6*time.Hour, availability.S3))
	tr.Add(mkEvent(0, 1*time.Hour, 2*time.Hour, availability.S3))
	tr.Sort()
	if tr.Events[0].Machine != 0 || tr.Events[0].Start != time.Hour {
		t.Errorf("sort order wrong: %+v", tr.Events)
	}
	if tr.Events[2].Machine != 1 {
		t.Errorf("sort order wrong: %+v", tr.Events)
	}
}

func TestHourlyCountSeries(t *testing.T) {
	tr := New(span(2*sim.Day), sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 90*time.Minute, 3*time.Hour+30*time.Minute, availability.S3))
	s := tr.HourlyCountSeries()
	if len(s) != 48 {
		t.Fatalf("series length = %d, want 48", len(s))
	}
	for h, want := range map[int]float64{0: 0, 1: 1, 2: 1, 3: 1, 4: 0} {
		if s[h] != want {
			t.Errorf("hour %d = %v, want %v", h, s[h], want)
		}
	}
	empty := New(span(0), sim.Calendar{}, 1)
	if empty.HourlyCountSeries() != nil {
		t.Error("zero-span series should be nil")
	}
}

// TestHourlyCountSeriesSpanStart pins that the series is indexed from the
// span start, not from t = 0: a span that starts anywhere else — later, or
// at a negative instant off the hour grid — still counts every event once
// per hour of observation it touches.
func TestHourlyCountSeriesSpanStart(t *testing.T) {
	for _, start := range []sim.Time{0, 10 * sim.Day, -3*sim.Day - 20*time.Minute} {
		tr := New(sim.Window{Start: start, End: start + 2*sim.Day}, sim.Calendar{}, 1)
		tr.Add(mkEvent(0, start+90*time.Minute, start+3*time.Hour+30*time.Minute, availability.S3))
		tr.Add(mkEvent(0, start+47*time.Hour+10*time.Minute, start+47*time.Hour+10*time.Minute, availability.S5))
		s := tr.HourlyCountSeries()
		if len(s) != 48 {
			t.Fatalf("span start %v: series length = %d, want 48", start, len(s))
		}
		for h, got := range s {
			want := 0.0
			if (h >= 1 && h <= 3) || h == 47 {
				want = 1
			}
			if got != want {
				t.Errorf("span start %v: hour %d = %v, want %v", start, h, got, want)
			}
		}
	}
}

// TestHourlyCountSeriesPartialHour pins the partial-final-hour semantics:
// a span that is not a whole number of hours still gets an entry for its
// tail hour, so events there are counted rather than silently dropped.
func TestHourlyCountSeriesPartialHour(t *testing.T) {
	// 2h30m span: 3 entries, the last covering the 30-minute tail.
	tr := New(span(2*time.Hour+30*time.Minute), sim.Calendar{}, 1)
	tr.Add(mkEvent(0, 2*time.Hour+10*time.Minute, 2*time.Hour+20*time.Minute, availability.S3))
	s := tr.HourlyCountSeries()
	if len(s) != 3 {
		t.Fatalf("series length = %d, want 3 (partial hour rounds up)", len(s))
	}
	if s[2] != 1 {
		t.Errorf("tail-hour count = %v, want 1 (event in the partial final hour)", s[2])
	}
	if s[0] != 0 || s[1] != 0 {
		t.Errorf("whole hours = %v, %v, want 0, 0", s[0], s[1])
	}

	// A sub-hour span is one entry, not zero.
	short := New(span(20*time.Minute), sim.Calendar{}, 1)
	short.Add(mkEvent(0, 5*time.Minute, 10*time.Minute, availability.S4))
	if got := short.HourlyCountSeries(); len(got) != 1 || got[0] != 1 {
		t.Errorf("sub-hour span series = %v, want [1]", got)
	}
}
