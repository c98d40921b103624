package availability

import "testing"

func TestStatePredicates(t *testing.T) {
	tests := []struct {
		s           State
		available   bool
		unavailable bool
	}{
		{S1, true, false},
		{S2, true, false},
		{S3, false, true},
		{S4, false, true},
		{S5, false, true},
	}
	for _, tt := range tests {
		if tt.s.Available() != tt.available {
			t.Errorf("%v.Available() = %v", tt.s, tt.s.Available())
		}
		if tt.s.Unavailable() != tt.unavailable {
			t.Errorf("%v.Unavailable() = %v", tt.s, tt.s.Unavailable())
		}
		if !tt.s.Valid() {
			t.Errorf("%v.Valid() = false", tt.s)
		}
	}
	if State(0).Valid() || State(6).Valid() {
		t.Error("out-of-range states must be invalid")
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{S1, S2, S3, S4, S5} {
		if s.String() == "" {
			t.Errorf("state %d has empty String", int(s))
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestCauseOf(t *testing.T) {
	tests := []struct {
		s State
		c Cause
	}{
		{S1, CauseNone}, {S2, CauseNone},
		{S3, CauseCPU}, {S4, CauseMemory}, {S5, CauseRevocation},
	}
	for _, tt := range tests {
		if got := CauseOf(tt.s); got != tt.c {
			t.Errorf("CauseOf(%v) = %v, want %v", tt.s, got, tt.c)
		}
	}
	for _, c := range []Cause{CauseNone, CauseCPU, CauseMemory, CauseRevocation, Cause(9)} {
		if c.String() == "" {
			t.Errorf("cause %d has empty String", int(c))
		}
	}
}
