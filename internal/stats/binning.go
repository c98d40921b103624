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
// summarizes each bin across groups. The zero value is unusable; construct
// with NewGroupedBins.
type GroupedBins struct {
	bins int
	data map[int][]float64 // bin -> one value per group (after fold)
	acc  map[groupBin]float64
}

type groupBin struct {
	group int
	bin   int
}

// NewGroupedBins creates an accumulator with the given number of bins
// (e.g. 24 for hours of day). It panics if bins <= 0.
func NewGroupedBins(bins int) *GroupedBins {
	if bins <= 0 {
		panic("stats: NewGroupedBins requires bins > 0")
	}
	return &GroupedBins{
		bins: bins,
		data: make(map[int][]float64),
		acc:  make(map[groupBin]float64),
	}
}

// Add accumulates v into the given (group, bin) cell. Multiple Adds to the
// same cell sum, so event counts can be streamed one at a time.
func (g *GroupedBins) Add(group, bin int, v float64) {
	if bin < 0 || bin >= g.bins {
		return
	}
	g.acc[groupBin{group, bin}] += v
}

// Touch ensures a group exists even if no events were recorded for it, so
// that zero-event days drag the per-bin mean (and min) down, as they should.
func (g *GroupedBins) Touch(group int) {
	g.Add(group, 0, 0)
	// Adding zero to bin 0 marks the group as present without changing sums.
	if _, ok := g.acc[groupBin{group, 0}]; !ok {
		g.acc[groupBin{group, 0}] = 0
	}
}

// MergeFrom folds o's accumulated cells into g. Cell sums add, so two
// accumulators fed disjoint partitions of an event stream merge into
// exactly the accumulator a single pass would have built — Touch marks
// (zero-valued cells) in both inputs stay zero. The bin counts must match.
func (g *GroupedBins) MergeFrom(o *GroupedBins) error {
	if g.bins != o.bins {
		return fmt.Errorf("stats: merging GroupedBins with %d bins into %d bins", o.bins, g.bins)
	}
	for k, v := range o.acc {
		g.acc[k] += v
	}
	return nil
}

// groups returns the sorted distinct group keys.
func (g *GroupedBins) groups() []int {
	seen := make(map[int]bool)
	for k := range g.acc {
		seen[k.group] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// NumGroups returns how many distinct groups contributed.
func (g *GroupedBins) NumGroups() int { return len(g.groups()) }

// Summarize returns one Summary per bin, aggregating each bin's per-group
// totals. Groups that recorded nothing for a bin contribute a 0 to that
// bin's statistics (a day with no failures in hour h is a real observation
// of 0 failures).
func (g *GroupedBins) Summarize() []Summary {
	groups := g.groups()
	out := make([]Summary, g.bins)
	for b := 0; b < g.bins; b++ {
		var vals []float64
		for _, gr := range groups {
			vals = append(vals, g.acc[groupBin{gr, b}])
		}
		if len(vals) == 0 {
			continue
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

// BinValues returns the per-group totals for one bin (sorted by group key),
// which the predictor evaluation uses as its history sample.
func (g *GroupedBins) BinValues(bin int) []float64 {
	groups := g.groups()
	vals := make([]float64, 0, len(groups))
	for _, gr := range groups {
		vals = append(vals, g.acc[groupBin{gr, bin}])
	}
	return vals
}
