package stats

import (
	"fmt"
	"sort"
)

// Summary condenses a set of observations for one bin: mean plus the
// min..max range across the contributing groups. This is the quantity the
// paper's Figure 7 plots per hour of day ("both the average values and the
// ranges over all the weekdays and weekends ... are depicted").
type Summary struct {
	Mean  float64
	Min   float64
	Max   float64
	Count int
}

// GroupedBins accumulates values keyed by (group, bin) — in the trace
// analysis, group is a calendar day and bin is an hour of day — and then
// summarizes each bin across groups. It holds one row of bins per group that
// was ever added to or touched, and remembers the row it used last: a
// machine's events arrive in time order, so consecutive adds mostly share a
// day and skip the map. The zero value is unusable; construct with
// NewGroupedBins.
type GroupedBins struct {
	bins int
	rows map[int][]float64 // group -> accumulated value per bin

	lastGroup int
	last      []float64 // rows[lastGroup]; nil before the first row
}

// NewGroupedBins creates an accumulator with the given number of bins
// (e.g. 24 for hours of day). It panics if bins <= 0.
func NewGroupedBins(bins int) *GroupedBins {
	if bins <= 0 {
		panic("stats: NewGroupedBins requires bins > 0")
	}
	return &GroupedBins{bins: bins, rows: make(map[int][]float64)}
}

// row returns group's row, creating it (all zeros) on first use.
func (g *GroupedBins) row(group int) []float64 {
	if g.last != nil && g.lastGroup == group {
		return g.last
	}
	r, ok := g.rows[group]
	if !ok {
		r = make([]float64, g.bins)
		g.rows[group] = r
	}
	g.lastGroup, g.last = group, r
	return r
}

// Add accumulates v into the given (group, bin) cell. Multiple Adds to the
// same cell sum, so event counts can be streamed one at a time. An
// out-of-range bin is dropped and does not make its group present.
func (g *GroupedBins) Add(group, bin int, v float64) {
	if bin < 0 || bin >= g.bins {
		return
	}
	g.row(group)[bin] += v
}

// Touch ensures a group exists even if no events were recorded for it, so
// that zero-event days drag the per-bin mean (and min) down, as they should.
func (g *GroupedBins) Touch(group int) { g.row(group) }

// MergeFrom folds o's accumulated cells into g. Cell sums add, so two
// accumulators fed disjoint partitions of an event stream merge into
// exactly the accumulator a single pass would have built — groups only
// touched in both inputs stay zero. The bin counts must match.
func (g *GroupedBins) MergeFrom(o *GroupedBins) error {
	if g.bins != o.bins {
		return fmt.Errorf("stats: merging GroupedBins with %d bins into %d bins", o.bins, g.bins)
	}
	for group, from := range o.rows {
		to := g.row(group)
		for b, v := range from {
			to[b] += v
		}
	}
	return nil
}

// groups returns the sorted distinct group keys.
func (g *GroupedBins) groups() []int {
	out := make([]int, 0, len(g.rows))
	for group := range g.rows {
		out = append(out, group)
	}
	sort.Ints(out)
	return out
}

// Summarize returns one Summary per bin, aggregating each bin's per-group
// totals. Groups that recorded nothing for a bin contribute a 0 to that
// bin's statistics (a day with no failures in hour h is a real observation
// of 0 failures).
func (g *GroupedBins) Summarize() []Summary {
	groups := g.groups()
	out := make([]Summary, g.bins)
	if len(groups) == 0 {
		return out
	}
	vals := make([]float64, len(groups))
	for b := range out {
		for i, gr := range groups {
			vals[i] = g.rows[gr][b]
		}
		out[b] = Summary{
			Mean:  Mean(vals),
			Min:   Min(vals),
			Max:   Max(vals),
			Count: len(vals),
		}
	}
	return out
}
