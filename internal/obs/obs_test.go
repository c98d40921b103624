package obs

import (
	"math"
	"strings"
	"testing"
)

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fgcs_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("fgcs_test_total", "a counter"); again != c {
		t.Error("get-or-create returned a different counter for the same name")
	}

	g := r.Gauge("fgcs_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Errorf("gauge = %v, want 1.25", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("fgcs_ops_total", "ops", L("op", "list"))
	b := r.Counter("fgcs_ops_total", "ops", L("op", "submit"))
	if a == b {
		t.Fatal("different label values must give different series")
	}
	a.Inc()
	// Label order must not matter.
	c := r.Counter("fgcs_multi_total", "m", L("b", "2"), L("a", "1"))
	d := r.Counter("fgcs_multi_total", "m", L("a", "1"), L("b", "2"))
	if c != d {
		t.Error("label order changed series identity")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fgcs_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.05 and 0.1 land in le=0.1 (le is inclusive), 0.5 in le=1, 2 in
	// le=10, 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Errorf("sum = %v, want 102.65", s.Sum)
	}
}

func TestLocalHistogramFlush(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fgcs_local_seconds", "latency", []float64{0.1, 1, 10})
	l := h.Local()
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		l.Observe(v)
	}
	if h.Snapshot().Count != 0 {
		t.Fatalf("parent saw %d observations before Flush", h.Snapshot().Count)
	}
	l.Flush()
	l.Flush() // empty flush must be a no-op
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-102.65) > 1e-9 {
		t.Errorf("sum = %v, want 102.65", s.Sum)
	}

	// A second batch through the same accumulator lands on top.
	l.Observe(0.5)
	l.Flush()
	if got := h.Snapshot().Count; got != 6 {
		t.Errorf("count after second batch = %d, want 6", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fgcs_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("requesting a counter name as a gauge should panic")
		}
	}()
	r.Gauge("fgcs_x_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	r.Counter("fgcs-bad-name", "x")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if exp[3] != 8 {
		t.Errorf("ExpBuckets = %v", exp)
	}
}

func TestSnapshotOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("fgcs_b_total", "b")
	r.Counter("fgcs_a_total", "a")
	r.Counter("fgcs_a_total", "a") // re-get must not duplicate
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "fgcs_a_total" || snap[1].Name != "fgcs_b_total" {
		t.Errorf("snapshot families = %+v, want sorted unique names", snap)
	}
	var names []string
	for _, f := range snap {
		names = append(names, f.Name)
	}
	if strings.Join(names, ",") != "fgcs_a_total,fgcs_b_total" {
		t.Errorf("names = %v", names)
	}
}
