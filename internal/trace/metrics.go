package trace

import (
	"repro/internal/availability"
	"repro/internal/obs"
	"repro/internal/sim"
)

// streamMetrics is the live-scrape view of a StreamAnalyzer: the same
// per-state residence and occurrence quantities Table 2 and Figure 6
// summarize after Finish, exported incrementally so a fleet analysis in
// flight can be watched on /metrics.
type streamMetrics struct {
	events    map[availability.State]*obs.Counter
	durations map[availability.State]*obs.Histogram
	intervals map[sim.DayType]*obs.Histogram
}

// unavailHoursBuckets cover unavailability events from sub-minute reboots
// to the multi-hour failures of the paper's Table 2 outage mix.
var unavailHoursBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 6, 12}

// availHoursBuckets cover the Figure 6 availability-interval bands: the
// sub-5-minute multi-spike gaps, the dominant 2-4 hour band, and the long
// idle stretches.
var availHoursBuckets = []float64{0.05, 0.083, 0.25, 0.5, 1, 2, 3, 4, 6, 12, 24, 72}

// Instrument attaches an obs registry: per-state unavailability-event
// counters and residence (event duration) histograms, plus per-day-type
// availability-interval histograms. Call before the first Observe; metric
// families register eagerly so an idle analyzer still scrapes cleanly.
// Instrumentation never changes what the analyzer computes.
func (a *StreamAnalyzer) Instrument(reg *obs.Registry) {
	m := &streamMetrics{
		events:    make(map[availability.State]*obs.Counter),
		durations: make(map[availability.State]*obs.Histogram),
		intervals: make(map[sim.DayType]*obs.Histogram),
	}
	for _, st := range []availability.State{availability.S3, availability.S4, availability.S5} {
		m.events[st] = reg.Counter("fgcs_trace_events_total",
			"unavailability events by state", obs.L("state", st.Short()))
		m.durations[st] = reg.Histogram("fgcs_trace_event_hours",
			"unavailability event durations (per-state residence in S3-S5)",
			unavailHoursBuckets, obs.L("state", st.Short()))
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		m.intervals[dt] = reg.Histogram("fgcs_trace_avail_interval_hours",
			"availability interval lengths between unavailability runs (Figure 6)",
			availHoursBuckets, obs.L("daytype", dt.String()))
	}
	a.met = m
}

// noteEvent feeds one observed event into the metrics (no-op when not
// instrumented).
func (a *StreamAnalyzer) noteEvent(e *Event) {
	if a.met == nil {
		return
	}
	if c := a.met.events[e.State]; c != nil {
		c.Inc()
	}
	if h := a.met.durations[e.State]; h != nil {
		h.Observe(e.Duration().Hours())
	}
}

// noteInterval feeds one availability interval into the metrics.
func (a *StreamAnalyzer) noteInterval(dt sim.DayType, hours float64) {
	if a.met == nil {
		return
	}
	if h := a.met.intervals[dt]; h != nil {
		h.Observe(hours)
	}
}
