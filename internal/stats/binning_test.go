package stats

import "testing"

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
	if g.NumGroups() != 2 {
		t.Errorf("NumGroups = %d, want 2", g.NumGroups())
	}
	vals := g.BinValues(4)
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 0 {
		t.Errorf("BinValues(4) = %v, want [2 0]", vals)
	}
}

func TestGroupedBinsIgnoresOutOfRange(t *testing.T) {
	g := NewGroupedBins(24)
	g.Add(0, -1, 5)
	g.Add(0, 24, 5)
	if g.NumGroups() != 0 {
		t.Error("out-of-range bins should be dropped entirely")
	}
}
