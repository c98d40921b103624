package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The paper's trace artefacts as text: one formatter each, shared by
// cmd/fgcs-analyze, the examples and the root golden test, so every route
// to Table 2, Figure 6, Figure 7 and the periodicity report prints the same
// rows. Each returns its block ending in one newline.

// Format renders Table 2: per-machine frequency ranges by cause, the
// percentage bands, and the reboot share of URR.
func (tb Table2) Format() string {
	var b strings.Builder
	b.WriteString("Table 2 — resource unavailability due to different causes (per machine)\n")
	fmt.Fprintf(&b, "%-12s %-12s %-18s %-18s %-10s\n", "", "total", "cpu contention", "mem contention", "URR")
	fmt.Fprintf(&b, "%-12s %4d-%-7d %6d-%-11d %6d-%-11d %3d-%-6d\n", "frequency",
		tb.Total.Min, tb.Total.Max, tb.CPU.Min, tb.CPU.Max,
		tb.Memory.Min, tb.Memory.Max, tb.URR.Min, tb.URR.Max)
	band := func(r [2]float64) string { return fmt.Sprintf("%.0f%%-%.0f%%", r[0]*100, r[1]*100) }
	fmt.Fprintf(&b, "%-12s %-12s %-18s %-18s %-10s\n", "percentage", "100%",
		band(tb.CPUPct), band(tb.MemoryPct), band(tb.URRPct))
	fmt.Fprintf(&b, "URR from reboots (outage < %v): %.0f%%  (paper: ~90%%)\n", tb.RebootCutoff, tb.RebootShare*100)
	return b.String()
}

// FormatFigure6 renders Figure 6: the weekday and weekend CDFs of
// availability-interval lengths on the paper's hour grid, with the means
// and the sub-5-minute share.
func FormatFigure6(weekday, weekend *stats.ECDF) string {
	var b strings.Builder
	b.WriteString("Figure 6 — cumulative distribution of availability-interval lengths\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "hours", "weekday", "weekend")
	for _, h := range []float64{1.0 / 12, 0.5, 1, 2, 3, 4, 5, 6, 8, 10, 12} {
		fmt.Fprintf(&b, "%-8.2f %9.1f%% %9.1f%%\n", h, weekday.At(h)*100, weekend.At(h)*100)
	}
	fmt.Fprintf(&b, "mean interval: weekday %.2f h, weekend %.2f h (paper: ~3 h / >5 h)\n",
		weekday.Mean(), weekend.Mean())
	fmt.Fprintf(&b, "intervals < 5 min: weekday %.1f%% (paper: ~5%%)\n", weekday.At(1.0/12)*100)
	return b.String()
}

// FormatFigure7 renders Figure 7: per-hour occurrence mean and min..max,
// one block per day type with a bar of the mean. The paper labels hours
// 1..24, hour i covering (i-1, i).
func FormatFigure7(weekday, weekend []stats.Summary) string {
	var b strings.Builder
	for i, day := range []struct {
		dt   sim.DayType
		sums []stats.Summary
	}{{sim.Weekday, weekday}, {sim.Weekend, weekend}} {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "Figure 7 — unavailability occurrences per hour (%ss)\n", day.dt)
		fmt.Fprintf(&b, "%-6s %8s %8s %8s  %s\n", "hour", "mean", "min", "max", "")
		for h, s := range day.sums {
			bar := strings.Repeat("#", int(s.Mean+0.5))
			fmt.Fprintf(&b, "%-6d %8.1f %8.0f %8.0f  %s\n", h+1, s.Mean, s.Min, s.Max, bar)
		}
	}
	return b.String()
}

// FormatPeriodicity renders the autocorrelation of the fleet-wide hourly
// failure series at off-harmonic, daily and weekly lags: the paper's
// predictability claim as numbers.
func (t *Trace) FormatPeriodicity() string {
	var b strings.Builder
	series := t.HourlyCountSeries()
	b.WriteString("Failure-series autocorrelation (the predictability claim, quantified)\n")
	for _, lag := range []int{6, 11, 24, 48, 24 * 7} {
		fmt.Fprintf(&b, "  lag %4dh: %+.3f\n", lag, stats.AutoCorrelation(series, lag))
	}
	return b.String()
}
