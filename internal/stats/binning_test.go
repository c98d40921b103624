package stats

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestGroupedBins(t *testing.T) {
	g := NewGroupedBins(24)
	// Day 0: 2 events in hour 4, 1 in hour 10. Day 1: nothing (touched).
	g.Add(0, 4, 1)
	g.Add(0, 4, 1)
	g.Add(0, 10, 1)
	g.Touch(1)
	sum := g.Summarize()
	if got := sum[4]; got.Mean != 1 || got.Min != 0 || got.Max != 2 || got.Count != 2 {
		t.Errorf("hour 4 summary = %+v, want mean 1 min 0 max 2 over 2 days", got)
	}
	if got := sum[10]; got.Mean != 0.5 {
		t.Errorf("hour 10 mean = %v, want 0.5", got.Mean)
	}
	if len(g.rows) != 2 {
		t.Errorf("%d groups, want 2", len(g.rows))
	}
	vals := binValues(g, 4)
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 0 {
		t.Errorf("hour 4 cells = %v, want [2 0]", vals)
	}
}

// binValues returns the per-group totals for one bin, sorted by group key.
// A bin out of range holds nothing: every group reads 0.
func binValues(g *GroupedBins, bin int) []float64 {
	groups := g.groups()
	vals := make([]float64, len(groups))
	if bin < 0 || bin >= g.bins {
		return vals
	}
	for i, gr := range groups {
		vals[i] = g.rows[gr][bin]
	}
	return vals
}

func TestGroupedBinsIgnoresOutOfRange(t *testing.T) {
	g := NewGroupedBins(24)
	g.Add(0, -1, 5)
	g.Add(0, 24, 5)
	if len(g.rows) != 0 {
		t.Error("out-of-range bins should be dropped entirely")
	}
}

// naiveGroupedBins is GroupedBins as it was before it kept a row per group:
// one map cell per (group, bin) ever added to. It is the reference the
// row-based accumulator is held to — internal/check builds its Figure 7
// oracle on GroupedBins itself, so without this the oracle would move with
// the implementation.
type naiveGroupedBins struct {
	bins int
	acc  map[[2]int]float64
}

func (g *naiveGroupedBins) add(group, bin int, v float64) {
	if bin < 0 || bin >= g.bins {
		return
	}
	g.acc[[2]int{group, bin}] += v
}

func (g *naiveGroupedBins) touch(group int) { g.add(group, 0, 0) }

func (g *naiveGroupedBins) mergeFrom(o *naiveGroupedBins) {
	for k, v := range o.acc {
		g.acc[k] += v
	}
}

func (g *naiveGroupedBins) groups() []int {
	seen := make(map[int]bool)
	for k := range g.acc {
		seen[k[0]] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func (g *naiveGroupedBins) binValues(bin int) []float64 {
	groups := g.groups()
	vals := make([]float64, 0, len(groups))
	for _, gr := range groups {
		vals = append(vals, g.acc[[2]int{gr, bin}])
	}
	return vals
}

func (g *naiveGroupedBins) summarize() []Summary {
	out := make([]Summary, g.bins)
	for b := range out {
		vals := g.binValues(b)
		if len(vals) == 0 {
			continue
		}
		out[b] = Summary{Mean: Mean(vals), Min: Min(vals), Max: Max(vals), Count: len(vals)}
	}
	return out
}

// TestGroupedBinsMatchesNaive drives both accumulators with the same random
// streams — negative groups, bins out of range on either side, groups that
// are only ever touched, long same-group runs and single hops (the last-row
// memo sees both), fractional and negative values — split over two
// accumulators that are then merged, and compares every exported answer.
func TestGroupedBinsMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bins := 1 + rng.Intn(30)
		got := [2]*GroupedBins{NewGroupedBins(bins), NewGroupedBins(bins)}
		want := [2]*naiveGroupedBins{{bins, map[[2]int]float64{}}, {bins, map[[2]int]float64{}}}
		group := 0
		for i, n := 0, rng.Intn(400); i < n; i++ {
			if rng.Intn(4) == 0 {
				group = rng.Intn(40) - 20
			}
			half := rng.Intn(2)
			switch rng.Intn(8) {
			case 0:
				got[half].Touch(group)
				want[half].touch(group)
			default:
				bin, v := rng.Intn(bins+4)-2, float64(rng.Intn(9)-2)/2
				got[half].Add(group, bin, v)
				want[half].add(group, bin, v)
			}
		}
		compare := func(stage string, g *GroupedBins, w *naiveGroupedBins) {
			t.Helper()
			if len(g.rows) != len(w.groups()) {
				t.Fatalf("seed %d %s: %d groups, want %d", seed, stage, len(g.rows), len(w.groups()))
			}
			if gs, ws := g.Summarize(), w.summarize(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("seed %d %s: Summarize = %v, want %v", seed, stage, gs, ws)
			}
			for bin := -1; bin <= bins; bin++ {
				if gv, wv := binValues(g, bin), w.binValues(bin); !reflect.DeepEqual(gv, wv) {
					t.Fatalf("seed %d %s: bin %d cells = %v, want %v", seed, stage, bin, gv, wv)
				}
			}
		}
		compare("first half", got[0], want[0])
		compare("second half", got[1], want[1])
		if err := got[0].MergeFrom(got[1]); err != nil {
			t.Fatal(err)
		}
		want[0].mergeFrom(want[1])
		compare("merged", got[0], want[0])
		compare("merged-from, untouched", got[1], want[1])
	}
	if err := NewGroupedBins(3).MergeFrom(NewGroupedBins(4)); err == nil {
		t.Error("merging accumulators with different bin counts must fail")
	}
}
