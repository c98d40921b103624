package check

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// This file holds the reference oracles the optimized trace, testbed and
// forecast paths are compared against: the naive whole-slice bodies of the
// Table 2 / Figure 6 / Figure 7 analyses, the linear-scan window queries,
// the same-window forecast estimators, and the per-period testbed runner.
// They were the production implementations once; they live here, in test
// code, one copy each, so that every differential leg has something
// independent to agree with — production code has exactly one analyzer
// (trace.StreamAnalyzer), one query layer (trace.Index), one estimator
// (internal/predict) and one runner (testbed.RunSharded). Nothing here
// shares logic with those: the oracles re-derive every answer from the raw
// event slice or the raw observation stream.

// NaiveCountByCause tallies events per machine and cause by walking the
// event slice — the oracle for StreamAnalyzer.CountByCause.
func NaiveCountByCause(t *trace.Trace) map[trace.MachineID]trace.CauseCounts {
	out := make(map[trace.MachineID]trace.CauseCounts)
	for _, e := range t.Events {
		c := out[e.Machine]
		c.Total++
		switch e.Cause() {
		case availability.CauseCPU:
			c.CPU++
		case availability.CauseMemory:
			c.Memory++
		case availability.CauseRevocation:
			c.URR++
		}
		out[e.Machine] = c
	}
	return out
}

// NaiveTable2 computes Table 2 over all machines of the trace from the
// per-machine tallies — the oracle for StreamAnalyzer.Table2.
func NaiveTable2(t *trace.Trace) trace.Table2 {
	byMachine := NaiveCountByCause(t)
	tb := trace.Table2{RebootCutoff: trace.DefaultRebootCutoff}
	share := func(part, total int) float64 {
		if total == 0 {
			return 0
		}
		return float64(part) / float64(total)
	}
	widen := func(r *trace.Range, v int) {
		r.Min, r.Max = min(r.Min, v), max(r.Max, v)
	}
	widenPct := func(r *[2]float64, v float64) {
		r[0], r[1] = min(r[0], v), max(r[1], v)
	}
	for m := 0; m < t.Machines; m++ {
		c := byMachine[trace.MachineID(m)]
		cpu, mem, urr := share(c.CPU, c.Total), share(c.Memory, c.Total), share(c.URR, c.Total)
		if m == 0 {
			// Every band starts at the first machine's values — zero
			// shares when it has no events — and only ever widens.
			tb.Total = trace.Range{Min: c.Total, Max: c.Total}
			tb.CPU = trace.Range{Min: c.CPU, Max: c.CPU}
			tb.Memory = trace.Range{Min: c.Memory, Max: c.Memory}
			tb.URR = trace.Range{Min: c.URR, Max: c.URR}
			tb.CPUPct, tb.MemoryPct, tb.URRPct = [2]float64{cpu, cpu}, [2]float64{mem, mem}, [2]float64{urr, urr}
			continue
		}
		widen(&tb.Total, c.Total)
		widen(&tb.CPU, c.CPU)
		widen(&tb.Memory, c.Memory)
		widen(&tb.URR, c.URR)
		if c.Total > 0 {
			widenPct(&tb.CPUPct, cpu)
			widenPct(&tb.MemoryPct, mem)
			widenPct(&tb.URRPct, urr)
		}
	}

	urrTotal, reboots := 0, 0
	for _, e := range t.Events {
		if e.State == availability.S5 {
			urrTotal++
			if e.Duration() < tb.RebootCutoff {
				reboots++
			}
		}
	}
	if urrTotal > 0 {
		tb.RebootShare = float64(reboots) / float64(urrTotal)
	}
	return tb
}

// NaiveIntervalLengths returns the Figure 6 samples: the lengths (hours) of
// the availability intervals that begin on a day of the given type, from
// the per-machine gap extraction of Trace.Intervals — the oracle for the
// analyzer's streaming coalesce-and-clip.
func NaiveIntervalLengths(t *trace.Trace, dt sim.DayType) []float64 {
	var hours []float64
	for m := 0; m < t.Machines; m++ {
		for _, iv := range t.Intervals(trace.MachineID(m)) {
			if t.Calendar.DayType(iv.Start) == dt {
				hours = append(hours, iv.Duration().Hours())
			}
		}
	}
	return hours
}

// NaiveHourlyOccurrences computes Figure 7 for one day type by walking
// every event's hour bins — the oracle for
// StreamAnalyzer.HourlyOccurrences.
func NaiveHourlyOccurrences(t *trace.Trace, dt sim.DayType) []stats.Summary {
	g := stats.NewGroupedBins(24)
	// Make every day of this type present so quiet days count as zeros.
	startDay := t.Calendar.DayIndex(t.Span.Start)
	endDay := t.Calendar.DayIndex(t.Span.End - 1)
	for d := startDay; d <= endDay; d++ {
		if t.Calendar.DayType(sim.Time(d)*sim.Day) == dt {
			g.Touch(d)
		}
	}
	for _, e := range t.Events {
		hStart := e.Start / time.Hour
		hEnd := (e.End - 1) / time.Hour
		if e.End <= e.Start {
			hEnd = hStart
		}
		for h := hStart; h <= hEnd; h++ {
			at := sim.Time(h) * time.Hour
			if t.Calendar.DayType(at) != dt {
				continue
			}
			g.Add(t.Calendar.DayIndex(at), t.Calendar.HourOfDay(at), 1)
		}
	}
	return g.Summarize()
}

// LinearOccurrencesInWindow counts the events of machine m that start
// within [w.Start, w.End) by scanning every event — the oracle for the
// indexes' CountInWindow.
func LinearOccurrencesInWindow(t *trace.Trace, m trace.MachineID, w sim.Window) int {
	n := 0
	for _, e := range t.Events {
		if e.Machine == m && e.Start >= w.Start && e.Start < w.End {
			n++
		}
	}
	return n
}

// LinearAnyOverlap reports whether machine m has an event overlapping w,
// by scanning every event — the oracle for the indexes' AnyOverlap.
func LinearAnyOverlap(t *trace.Trace, m trace.MachineID, w sim.Window) bool {
	for _, e := range t.Events {
		if e.Machine == m && e.Start < w.End && e.End > w.Start {
			return true
		}
	}
	return false
}

// LinearNextEventAfter returns the first event of machine m starting at or
// after ts, by scanning every event — the oracle for the indexes'
// NextEventAfter. Ties on start time resolve to the earliest end, the
// (start, end) order Sort and Index use, so the answer does not depend on
// the order events happen to be stored in.
func LinearNextEventAfter(t *trace.Trace, m trace.MachineID, ts sim.Time) (trace.Event, bool) {
	best := trace.Event{}
	found := false
	for _, e := range t.Events {
		if e.Machine != m || e.Start < ts {
			continue
		}
		if !found || e.Start < best.Start || (e.Start == best.Start && e.End < best.End) {
			best = e
			found = true
		}
	}
	return best, found
}

// checkIndexQueries holds ix's point queries on machine m to linear scans of
// t at every point of pts and over the window between each point and the
// next. TestDifferential and FuzzIndexQueries both run it.
func checkIndexQueries(t *trace.Trace, ix *trace.Index, m trace.MachineID, pts []sim.Time) error {
	for _, ts := range pts {
		wantEnd, wantOK := sim.Time(0), false // the latest End <= ts
		for _, e := range t.Events {
			if e.Machine == m && e.End <= ts && (!wantOK || e.End > wantEnd) {
				wantEnd, wantOK = e.End, true
			}
		}
		le, lok := LinearNextEventAfter(t, m, ts)
		ie, iok := ix.NextEventAfter(m, ts)
		if gotEnd, gotOK := ix.LastEndBefore(m, ts); le != ie || lok != iok || wantEnd != gotEnd || wantOK != gotOK {
			return fmt.Errorf("machine %d at %v: NextEventAfter linear (%+v, %v), indexed (%+v, %v); LastEndBefore linear (%v, %v), indexed (%v, %v)",
				m, ts, le, lok, ie, iok, wantEnd, wantOK, gotEnd, gotOK)
		}
	}
	for i := 0; i+1 < len(pts); i++ {
		w := sim.Window{Start: min(pts[i], pts[i+1]), End: max(pts[i], pts[i+1])}
		lo, io := LinearAnyOverlap(t, m, w), ix.AnyOverlap(m, w)
		if lc, ic := LinearOccurrencesInWindow(t, m, w), ix.CountInWindow(m, w); lo != io || lc != ic {
			return fmt.Errorf("machine %d window %v: AnyOverlap linear %v, indexed %v; CountInWindow linear %d, indexed %d", m, w, lo, io, lc, ic)
		}
		// FirstOverlap's contract: an overlapping event iff one exists, whose
		// overlap begins at the earliest instant any does. Events open at
		// w.Start tie on that begin, so the check compares begins, not events.
		wantBegin, wantOK := sim.Time(0), false
		for _, e := range t.Events {
			if e.Machine == m && e.Start < w.End && e.End > w.Start && (!wantOK || max(e.Start, w.Start) < wantBegin) {
				wantBegin, wantOK = max(e.Start, w.Start), true
			}
		}
		got, gotOK := ix.FirstOverlap(m, w)
		if gotOK != wantOK || gotOK && (got.Machine != m || got.Start >= w.End || got.End <= w.Start || max(got.Start, w.Start) != wantBegin) {
			return fmt.Errorf("machine %d window %v: FirstOverlap (%+v, %v), want an overlap from %v (%v)", m, w, got, gotOK, wantBegin, wantOK)
		}
	}
	return nil
}

// naiveSameWindowHistory returns machine m's event count in w's clock
// window on each fully observed prior day, oldest first: w shifted back a
// day at a time for as long as it stays inside the span, each count a
// linear scan. With sameDayType only days of w's day type contribute.
func naiveSameWindowHistory(t *trace.Trace, m trace.MachineID, w sim.Window, sameDayType bool) []float64 {
	var counts []float64
	for back := sim.Day; w.Start-back >= t.Span.Start; back += sim.Day {
		hw := sim.Window{Start: w.Start - back, End: w.End - back}
		if hw.End > w.Start || hw.End > t.Span.End {
			continue
		}
		if sameDayType && t.Calendar.DayType(hw.Start) != t.Calendar.DayType(w.Start) {
			continue
		}
		counts = append(counts, float64(LinearOccurrencesInWindow(t, m, hw)))
	}
	slices.Reverse(counts)
	return counts
}

// NaiveHistoryWindow is the reference form of the paper's predictor — the
// oracle for predict.HistoryWindow and forecast.Online.PredictCount /
// PredictSurvival: the (trimmed) mean of the same-day-type history counts
// and the Laplace-smoothed share of failure-free history windows, or the
// no-information answers (0, 0.5) for a machine outside the fleet or no
// history window.
func NaiveHistoryWindow(t *trace.Trace, m trace.MachineID, w sim.Window, trim float64) (count, survival float64) {
	if m < 0 || int(m) >= t.Machines {
		return 0, 0.5
	}
	counts := naiveSameWindowHistory(t, m, w, true)
	if len(counts) == 0 {
		return 0, 0.5
	}
	free := 0
	for _, c := range counts {
		if c == 0 {
			free++
		}
	}
	survival = stats.Clamp01(float64(free+1) / float64(len(counts)+2))
	if trim > 0 {
		return stats.TrimmedMean(counts, trim), survival
	}
	return stats.Mean(counts), survival
}

// NaiveEWMADaily is the reference form of the exponentially weighted daily
// model — the oracle for predict.EWMADaily, trained or run over a
// forecast.Online ring: every fully observed prior day's same-window count smoothed
// oldest to newest with weight 0.3 on the newer and exp(-count) as the
// survival, or (0, 0.5) when no prior day contributed.
func NaiveEWMADaily(t *trace.Trace, m trace.MachineID, w sim.Window) (count, survival float64) {
	if m < 0 || int(m) >= t.Machines {
		return 0, 0.5
	}
	counts := naiveSameWindowHistory(t, m, w, false)
	if len(counts) == 0 {
		return 0, 0.5
	}
	const alpha = 0.3
	count = counts[0]
	for _, c := range counts[1:] {
		count = alpha*c + (1-alpha)*count
	}
	return count, stats.Clamp01(math.Exp(-count))
}

// RunNaive is the reference form of testbed.Run: per machine, every
// observation of the public per-period stream goes through a plain
// detector, time-in-state accumulator and event builder — no span
// skipping, no smoothing shortcuts, no sharding and no parallelism. It is
// orders of magnitude slower than Run at realistic spans; keep it to small
// configurations.
func RunNaive(cfg testbed.Config) (*trace.Trace, []testbed.Occupancy, error) {
	h := testbed.SinkHeader(cfg)
	tr := trace.New(h.Span, h.Calendar, h.Machines)
	occ := make([]testbed.Occupancy, h.Machines)
	for id := trace.MachineID(0); int(id) < h.Machines; id++ {
		det, err := availability.NewDetector(cfg.Detector)
		if err != nil {
			return nil, nil, err
		}
		builder := trace.NewBuilder(id)
		timing := availability.NewTimeInState(availability.S1)
		err = testbed.ObservationStream(cfg, id, func(obs availability.Observation) error {
			state, transition := det.Observe(obs)
			timing.Advance(obs.At, state)
			if transition != nil {
				if ev := builder.OnTransition(*transition); ev != nil {
					tr.Add(*ev)
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if ev := builder.Flush(h.Span.End); ev != nil {
			tr.Add(*ev)
		}
		occ[id] = testbed.Occupancy{Machine: id, Fraction: make(map[availability.State]float64)}
		for _, st := range allStates {
			occ[id].Fraction[st] = timing.Fraction(st)
		}
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		return nil, nil, fmt.Errorf("check: naive run generated an invalid trace: %w", err)
	}
	return tr, occ, nil
}
