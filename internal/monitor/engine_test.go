package monitor

import (
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/simos"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Machine: simos.LinuxLabMachine(seed),
		Monitor: Config{Period: 10 * time.Second, SmoothWindow: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stepFor steps the engine for d of virtual time and returns the
// transitions its steps reported.
func stepFor(e *Engine, d time.Duration) []availability.Transition {
	var trs []availability.Transition
	end := e.Machine().Now() + d
	for e.Machine().Now() < end {
		if _, _, _, tr := e.Step(); tr != nil {
			trs = append(trs, *tr)
		}
	}
	return trs
}

// events records transitions as unavailability events, closing any open
// one at the machine's current time.
func events(e *Engine, trs []availability.Transition) []trace.Event {
	b := trace.NewBuilder(0)
	var out []trace.Event
	for _, tr := range trs {
		if ev := b.OnTransition(tr); ev != nil {
			out = append(out, *ev)
		}
	}
	if ev := b.Flush(e.Machine().Now()); ev != nil {
		out = append(out, *ev)
	}
	return out
}

func TestEngineIdleStaysS1(t *testing.T) {
	e := newEngine(t, 1)
	if trs := stepFor(e, 10*time.Minute); len(trs) != 0 {
		t.Errorf("idle machine reported transitions %+v", trs)
	}
	if e.State() != availability.S1 {
		t.Errorf("idle machine state = %v, want S1", e.State())
	}
	if now := e.Machine().Now(); now != 10*time.Minute {
		t.Errorf("machine at %v after 10m of steps", now)
	}
}

func TestEngineDetectsSustainedOverload(t *testing.T) {
	e := newEngine(t, 2)
	// Heavy host: 0.9 duty keeps LH above Th2.
	e.Machine().Spawn("crunch", simos.Host, 0, 100*simos.MB,
		&workload.DutyCycle{Usage: 0.92, Period: time.Second})
	evs := events(e, stepFor(e, 10*time.Minute))
	if e.State() != availability.S3 {
		t.Fatalf("state = %v, want S3", e.State())
	}
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1 continuous S3", len(evs))
	}
	if evs[0].State != availability.S3 {
		t.Errorf("event state = %v", evs[0].State)
	}
	if evs[0].Duration() < 8*time.Minute {
		t.Errorf("event duration = %v, want nearly the whole run", evs[0].Duration())
	}
}

func TestEngineManagesGuestLifecycle(t *testing.T) {
	e := newEngine(t, 3)
	guest := e.Machine().Spawn("guest", simos.Guest, 0, 64*simos.MB, workload.CPUBound{})
	ctrl := e.AttachGuest(guest)

	// Light load first: guest runs at default priority.
	e.Machine().Spawn("light", simos.Host, 0, 50*simos.MB,
		&workload.DutyCycle{Usage: 0.1, Period: time.Second})
	trs := stepFor(e, 2*time.Minute)
	if !ctrl.GuestAlive() {
		t.Fatal("guest should survive light load")
	}
	if guest.Nice() != 0 {
		t.Errorf("guest nice = %d under light load", guest.Nice())
	}

	// Medium load: S2 renices the guest.
	e.Machine().Spawn("medium", simos.Host, 0, 50*simos.MB,
		&workload.DutyCycle{Usage: 0.3, Period: time.Second})
	trs = append(trs, stepFor(e, 3*time.Minute)...)
	if e.State() != availability.S2 {
		t.Fatalf("state = %v, want S2 at ~0.4 load", e.State())
	}
	if guest.Nice() != availability.LowestNice {
		t.Errorf("guest nice = %d, want %d in S2", guest.Nice(), availability.LowestNice)
	}
	if !ctrl.GuestAlive() {
		t.Fatal("guest should survive S2")
	}

	// Overload: the guest is killed and an event recorded.
	e.Machine().Spawn("heavy", simos.Host, 0, 50*simos.MB,
		&workload.DutyCycle{Usage: 0.5, Period: time.Second})
	trs = append(trs, stepFor(e, 5*time.Minute)...)
	if ctrl.GuestAlive() {
		t.Fatal("guest should be killed under overload")
	}
	if guest.Alive() {
		t.Error("guest process should be dead")
	}
	evs := events(e, trs)
	if len(evs) == 0 || evs[len(evs)-1].State != availability.S3 {
		t.Errorf("expected a final S3 event, got %+v", evs)
	}
}

func TestEngineTransitionsRecorded(t *testing.T) {
	e := newEngine(t, 4)
	e.Machine().Spawn("h", simos.Host, 0, 50*simos.MB,
		&workload.DutyCycle{Usage: 0.35, Period: time.Second})
	trs := stepFor(e, 2*time.Minute)
	if len(trs) == 0 {
		t.Fatal("no transitions reported")
	}
	if trs[0].From != availability.S1 || trs[0].To != availability.S2 {
		t.Errorf("first transition %v -> %v, want S1 -> S2", trs[0].From, trs[0].To)
	}
}

// TestEngineDetachGuest: after DetachGuest the engine observes through the
// bare detector, so a load that renices, suspends or kills a managed guest
// leaves the former guest untouched.
func TestEngineDetachGuest(t *testing.T) {
	e := newEngine(t, 5)
	guest := e.Machine().Spawn("guest", simos.Guest, 0, 64*simos.MB, workload.CPUBound{})
	e.AttachGuest(guest)
	stepFor(e, time.Minute)
	e.DetachGuest()
	e.Machine().Spawn("heavy", simos.Host, 0, 50*simos.MB,
		&workload.DutyCycle{Usage: 0.92, Period: time.Second})
	for e.Machine().Now() < 10*time.Minute {
		if _, _, action, _ := e.Step(); action != availability.ActionNone {
			t.Fatalf("detached engine took action %v", action)
		}
	}
	if e.State() == availability.S1 {
		t.Error("detached engine stopped detecting: still S1 under a 0.92 host load")
	}
	if !guest.Alive() || guest.Nice() != 0 {
		t.Errorf("detached guest alive=%v nice=%d, want untouched", guest.Alive(), guest.Nice())
	}
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Machine: simos.MachineConfig{RAM: -5}}); err == nil {
		t.Error("bad machine config accepted")
	}
	if _, err := NewEngine(EngineConfig{Monitor: Config{Period: -time.Second}}); err == nil {
		t.Error("bad monitor config accepted")
	}
	if _, err := NewEngine(EngineConfig{Detector: availability.Config{TransientWindow: -1}}); err == nil {
		t.Error("bad detector config accepted")
	}
}
