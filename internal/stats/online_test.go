package stats

import "testing"

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Error("fresh EWMA should not be initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("first value should seed: got %v", e.Value())
	}
	e.Add(20)
	if !almostEqual(e.Value(), 15, 1e-12) {
		t.Errorf("EWMA after (10,20) alpha .5 = %v, want 15", e.Value())
	}
	// Clamping.
	if NewEWMA(-1) == nil || NewEWMA(5) == nil {
		t.Error("EWMA constructor must clamp, not fail")
	}
	e2 := NewEWMA(1)
	e2.Add(1)
	e2.Add(99)
	if e2.Value() != 99 {
		t.Errorf("alpha=1 should track last value, got %v", e2.Value())
	}
}
