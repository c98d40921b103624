package trace

import (
	"testing"
	"time"

	"repro/internal/availability"
)

func tr(at time.Duration, from, to availability.State, lh float64) availability.Transition {
	return availability.Transition{At: at, From: from, To: to, LH: lh, FreeMem: 1 << 30}
}

func TestBuilderOpenClose(t *testing.T) {
	b := NewBuilder(3)
	if b.open != nil {
		t.Error("fresh builder should have nothing open")
	}
	if ev := b.OnTransition(tr(time.Hour, availability.S1, availability.S3, 0.8)); ev != nil {
		t.Errorf("opening should not return an event, got %+v", ev)
	}
	if b.open == nil {
		t.Error("event should be open")
	}
	ev := b.OnTransition(tr(2*time.Hour, availability.S3, availability.S1, 0.1))
	if ev == nil {
		t.Fatal("closing should return the event")
	}
	if ev.Machine != 3 || ev.Start != time.Hour || ev.End != 2*time.Hour || ev.State != availability.S3 {
		t.Errorf("event = %+v", ev)
	}
	if ev.AvailCPU < 0.199 || ev.AvailCPU > 0.201 {
		t.Errorf("AvailCPU = %v, want 0.2 (captured at failure)", ev.AvailCPU)
	}
	if err := ev.Validate(); err != nil {
		t.Errorf("built event invalid: %v", err)
	}
	if b.open != nil {
		t.Error("nothing should remain open")
	}
}

func TestBuilderAvailableTransitionsIgnored(t *testing.T) {
	b := NewBuilder(0)
	if ev := b.OnTransition(tr(time.Hour, availability.S1, availability.S2, 0.4)); ev != nil {
		t.Errorf("S1->S2 produced event %+v", ev)
	}
	if b.open != nil {
		t.Error("S1->S2 should not open an event")
	}
}

func TestBuilderFailureToFailureSwitch(t *testing.T) {
	b := NewBuilder(1)
	b.OnTransition(tr(time.Hour, availability.S2, availability.S3, 0.9))
	// Machine gets rebooted while overloaded: S3 -> S5.
	ev := b.OnTransition(tr(90*time.Minute, availability.S3, availability.S5, 0))
	if ev == nil {
		t.Fatal("S3->S5 should close the S3 event")
	}
	if ev.State != availability.S3 || ev.End != 90*time.Minute {
		t.Errorf("closed event = %+v", ev)
	}
	if b.open == nil {
		t.Fatal("an S5 event should now be open")
	}
	ev = b.OnTransition(tr(91*time.Minute, availability.S5, availability.S1, 0))
	if ev == nil || ev.State != availability.S5 || ev.Start != 90*time.Minute {
		t.Errorf("S5 event = %+v", ev)
	}
}

func TestBuilderFlush(t *testing.T) {
	b := NewBuilder(2)
	b.OnTransition(tr(time.Hour, availability.S1, availability.S4, 0.2))
	ev := b.Flush(3 * time.Hour)
	if ev == nil || ev.End != 3*time.Hour || ev.State != availability.S4 {
		t.Errorf("flushed = %+v", ev)
	}
	if b.Flush(4*time.Hour) != nil {
		t.Error("second flush should return nil")
	}
}

func TestBuilderBackdatedTransitionClamped(t *testing.T) {
	// An S3 transition backdated before a previous event's close must not
	// produce a negative-duration event.
	b := NewBuilder(0)
	b.OnTransition(tr(2*time.Hour, availability.S1, availability.S3, 0.9))
	ev := b.OnTransition(availability.Transition{At: time.Hour, From: availability.S3, To: availability.S1})
	if ev == nil {
		t.Fatal("expected closed event")
	}
	if ev.End < ev.Start {
		t.Errorf("negative-duration event: %+v", ev)
	}
	if ev.Validate() != nil {
		t.Errorf("clamped event still invalid: %+v", ev)
	}
}
