package simos

import (
	"math/rand"
	"testing"
	"time"
)

// fixedBehavior is a strict compute/sleep cycle for tests.
type fixedBehavior struct {
	compute, sleep time.Duration
}

func (f fixedBehavior) NextPhase(*rand.Rand) (time.Duration, time.Duration, bool) {
	return f.compute, f.sleep, true
}

// hog is always runnable.
type hog struct{}

func (hog) NextPhase(*rand.Rand) (time.Duration, time.Duration, bool) {
	return time.Second, 0, true
}

// oneBurst runs once then exits.
type oneBurst struct {
	d    time.Duration
	done bool
}

func (o *oneBurst) NextPhase(*rand.Rand) (time.Duration, time.Duration, bool) {
	if o.done {
		return 0, 0, false
	}
	o.done = true
	return o.d, 0, true
}

// emptyPhases never supplies work.
type emptyPhases struct{}

func (emptyPhases) NextPhase(*rand.Rand) (time.Duration, time.Duration, bool) {
	return 0, 0, true
}

func testMachine(t *testing.T, seed int64) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{Name: "test", RAM: 1024 * MB, KernelMem: 100 * MB, Seed: seed})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestMachineConfigValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{RAM: -1}); err == nil {
		t.Error("negative RAM accepted")
	}
	if _, err := NewMachine(MachineConfig{RAM: 100, KernelMem: 200}); err == nil {
		t.Error("kernel larger than RAM accepted")
	}
	if _, err := NewMachine(MachineConfig{Sched: SchedParams{Tick: time.Millisecond, CreditCap: time.Second, InteractiveBoost: 0.5, ThrashFactor: 0.1}}); err == nil {
		t.Error("boost < 1 accepted")
	}
	if _, err := NewMachine(MachineConfig{Sched: SchedParams{Tick: time.Millisecond, InteractiveBoost: 2, ThrashFactor: 2}}); err == nil {
		t.Error("thrash factor > 1 accepted")
	}
	m, err := NewMachine(MachineConfig{})
	if err != nil {
		t.Fatalf("zero config should take defaults: %v", err)
	}
	if m.Config().Sched.Tick != time.Millisecond {
		t.Errorf("default tick = %v", m.Config().Sched.Tick)
	}
}

func TestSingleHogGetsFullCPU(t *testing.T) {
	m := testMachine(t, 1)
	p := m.Spawn("hog", Guest, 0, 10*MB, hog{})
	m.Run(10 * time.Second)
	if u := p.Usage(); u < 0.999 {
		t.Errorf("lone hog usage = %v, want ~1.0", u)
	}
	if m.IdleTime() != 0 {
		t.Errorf("idle time = %v, want 0", m.IdleTime())
	}
	if got := m.CPUTime(Guest); got != 10*time.Second {
		t.Errorf("guest CPU time = %v, want 10s", got)
	}
}

func TestIdleMachineAccumulatesIdleTime(t *testing.T) {
	m := testMachine(t, 2)
	m.Run(5 * time.Second)
	if m.IdleTime() != 5*time.Second {
		t.Errorf("idle = %v, want 5s", m.IdleTime())
	}
	if m.Now() != 5*time.Second {
		t.Errorf("now = %v, want 5s", m.Now())
	}
}

func TestDutyCycleAccuracyWhenAlone(t *testing.T) {
	m := testMachine(t, 3)
	p := m.Spawn("d40", Host, 0, 10*MB, fixedBehavior{compute: time.Second, sleep: 1500 * time.Millisecond})
	m.Run(100 * time.Second)
	u := p.Usage()
	if u < 0.38 || u > 0.42 {
		t.Errorf("isolated duty-cycle usage = %v, want ~0.40", u)
	}
}

func TestEqualHogsShareEvenly(t *testing.T) {
	m := testMachine(t, 4)
	a := m.Spawn("a", Host, 0, 10*MB, hog{})
	b := m.Spawn("b", Guest, 0, 10*MB, hog{})
	m.Run(60 * time.Second)
	ua, ub := a.Usage(), b.Usage()
	if ua < 0.45 || ua > 0.55 || ub < 0.45 || ub > 0.55 {
		t.Errorf("equal hogs: %v / %v, want ~0.5 each", ua, ub)
	}
}

func TestNice19HogGetsSmallShare(t *testing.T) {
	m := testMachine(t, 5)
	host := m.Spawn("host", Host, 0, 10*MB, hog{})
	guest := m.Spawn("guest", Guest, 19, 10*MB, hog{})
	m.Run(60 * time.Second)
	// Weights 22 vs 3: expect ~12% for the guest.
	ug := guest.Usage()
	if ug < 0.09 || ug > 0.15 {
		t.Errorf("nice-19 guest share = %v, want ~0.12", ug)
	}
	if uh := host.Usage(); uh < 0.82 {
		t.Errorf("host share = %v, want ~0.88", uh)
	}
}

func TestWorkConservation(t *testing.T) {
	m := testMachine(t, 6)
	m.Spawn("a", Host, 0, 10*MB, fixedBehavior{compute: 500 * time.Millisecond, sleep: 2 * time.Second})
	m.Spawn("b", Guest, 5, 10*MB, hog{})
	m.Spawn("c", Host, 10, 10*MB, fixedBehavior{compute: time.Second, sleep: time.Second})
	dur := 30 * time.Second
	m.Run(dur)
	total := m.CPUTime(Host) + m.CPUTime(Guest) + m.IdleTime()
	if total != dur {
		t.Errorf("CPU accounting not conserved: %v, want %v", total, dur)
	}
}

func TestInteractiveHostPreemptsGuest(t *testing.T) {
	// A light-duty host competing with a CPU-bound guest should keep
	// nearly its isolated usage: its credit-boosted weight dominates.
	m := testMachine(t, 7)
	host := m.Spawn("editor", Host, 0, 10*MB,
		fixedBehavior{compute: 250 * time.Millisecond, sleep: 2250 * time.Millisecond})
	m.Spawn("guest", Guest, 0, 10*MB, hog{})
	m.Run(120 * time.Second)
	u := host.Usage()
	// Isolated usage would be 0.10; accept a small contention loss.
	if u < 0.09 {
		t.Errorf("interactive host usage = %v, want >= 0.09 (isolated 0.10)", u)
	}
}

func TestCPUBoundHostLosesHalfToEqualGuest(t *testing.T) {
	// A host that never sleeps has no credit, so an equal-priority guest
	// takes half the machine: the far end of Figure 1(a).
	m := testMachine(t, 8)
	host := m.Spawn("cruncher", Host, 0, 10*MB, hog{})
	m.Spawn("guest", Guest, 0, 10*MB, hog{})
	m.Run(60 * time.Second)
	u := host.Usage()
	if u < 0.45 || u > 0.55 {
		t.Errorf("CPU-bound host under equal-priority guest = %v, want ~0.5", u)
	}
}

func TestSuspendResume(t *testing.T) {
	m := testMachine(t, 9)
	p := m.Spawn("g", Guest, 0, 10*MB, hog{})
	m.Run(time.Second)
	p.Suspend()
	before := p.CPUTime()
	m.Run(5 * time.Second)
	if p.CPUTime() != before {
		t.Error("suspended process accrued CPU time")
	}
	if m.IdleTime() != 5*time.Second {
		t.Errorf("idle while suspended = %v, want 5s", m.IdleTime())
	}
	p.Resume()
	if p.State() != Runnable {
		t.Errorf("resumed mid-burst process state = %v, want runnable", p.State())
	}
	m.Run(time.Second)
	if p.CPUTime() <= before {
		t.Error("resumed process did not run")
	}
}

func TestSuspendWhileSleepingResumesSleeping(t *testing.T) {
	m := testMachine(t, 10)
	p := m.Spawn("s", Host, 0, 10*MB, fixedBehavior{compute: time.Millisecond, sleep: time.Hour})
	m.Run(10 * time.Millisecond) // now sleeping
	if p.State() != Sleeping {
		t.Fatalf("setup: state = %v, want sleeping", p.State())
	}
	p.Suspend()
	p.Resume()
	if p.State() != Sleeping {
		t.Errorf("resume should restore sleeping, got %v", p.State())
	}
}

func TestKillReleasesMemoryAndStopsScheduling(t *testing.T) {
	m := testMachine(t, 11)
	p := m.Spawn("g", Guest, 0, 500*MB, hog{})
	if m.ResidentMem(Guest) != 500*MB {
		t.Fatalf("resident = %d", m.ResidentMem(Guest))
	}
	m.Run(time.Second)
	p.Kill()
	if p.Alive() {
		t.Error("killed process still alive")
	}
	if m.ResidentMem(Guest) != 0 {
		t.Error("killed process still holds memory")
	}
	ct := p.CPUTime()
	m.Run(time.Second)
	if p.CPUTime() != ct {
		t.Error("killed process accrued CPU time")
	}
	// Idempotent controls.
	p.Kill()
	p.Suspend()
	p.Resume()
	if p.State() != Dead {
		t.Error("dead process state changed by control calls")
	}
}

func TestProcessTermination(t *testing.T) {
	m := testMachine(t, 12)
	p := m.Spawn("once", Host, 0, 10*MB, &oneBurst{d: 100 * time.Millisecond})
	m.Run(time.Second)
	if p.Alive() {
		t.Error("one-shot process should have exited")
	}
	if got := p.CPUTime(); got != 100*time.Millisecond {
		t.Errorf("one-shot CPU time = %v, want 100ms", got)
	}
	if m.LiveCount() != 0 {
		t.Error("LiveCount should be zero")
	}
}

func TestBrokenBehaviorTerminates(t *testing.T) {
	m := testMachine(t, 13)
	p := m.Spawn("broken", Host, 0, 10*MB, emptyPhases{})
	if p.Alive() {
		t.Error("empty-phase behavior should terminate at spawn")
	}
	m.Run(time.Second) // must not hang or panic
}

func TestThrashingSlowsProgressAndAccounting(t *testing.T) {
	cfg := MachineConfig{Name: "small", RAM: 384 * MB, KernelMem: 100 * MB, Seed: 14}
	m := MustNewMachine(cfg)
	host := m.Spawn("big-host", Host, 0, 200*MB, hog{})
	guest := m.Spawn("big-guest", Guest, 0, 200*MB, hog{})
	if !m.Thrashing() {
		t.Fatal("400 MB of working sets in 284 MB free should thrash")
	}
	m.Run(10 * time.Second)
	// With ThrashFactor 0.1, total accounted CPU should be ~1s not 10s.
	total := host.CPUTime() + guest.CPUTime()
	if total > 1100*time.Millisecond || total < 900*time.Millisecond {
		t.Errorf("thrashing accounted CPU = %v, want ~1s", total)
	}
	if m.ThrashTime() != 10*time.Second {
		t.Errorf("thrash time = %v, want 10s", m.ThrashTime())
	}
	// Killing the guest ends thrashing.
	guest.Kill()
	if m.Thrashing() {
		t.Error("thrashing should end when the guest dies")
	}
}

func TestFreeMemForGuest(t *testing.T) {
	m := testMachine(t, 15) // 1024 MB RAM, 100 MB kernel
	m.Spawn("h", Host, 0, 300*MB, hog{})
	m.Spawn("g", Guest, 0, 200*MB, hog{})
	// Free for guest counts only host + kernel usage.
	if got := m.FreeMemForGuest(); got != 624*MB {
		t.Errorf("FreeMemForGuest = %d MB, want 624", got/MB)
	}
}

func TestUsageBetweenSnapshots(t *testing.T) {
	m := testMachine(t, 16)
	m.Spawn("h", Host, 0, 10*MB, fixedBehavior{compute: time.Second, sleep: time.Second})
	a := m.Snapshot()
	m.Run(20 * time.Second)
	b := m.Snapshot()
	u, err := UsageBetween(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Host < 0.45 || u.Host > 0.55 {
		t.Errorf("host usage = %v, want ~0.5", u.Host)
	}
	if u.Idle < 0.45 || u.Idle > 0.55 {
		t.Errorf("idle = %v, want ~0.5", u.Idle)
	}
	if _, err := UsageBetween(b, a); err == nil {
		t.Error("inverted snapshot window accepted")
	}
	if _, err := UsageBetween(b, b); err == nil {
		t.Error("empty snapshot window accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		m := testMachine(t, 42)
		m.Spawn("h", Host, 0, 10*MB, fixedBehavior{compute: 300 * time.Millisecond, sleep: 700 * time.Millisecond})
		g := m.Spawn("g", Guest, 19, 10*MB, hog{})
		m.Run(30 * time.Second)
		return g.CPUTime()
	}
	if run() != run() {
		t.Error("same seed must produce identical simulations")
	}
}

func TestClassAndStateStrings(t *testing.T) {
	for _, c := range []Class{Host, Guest, Class(7)} {
		if c.String() == "" {
			t.Error("empty class string")
		}
	}
	for _, s := range []ProcState{Runnable, Sleeping, Suspended, Dead, ProcState(9)} {
		if s.String() == "" {
			t.Error("empty state string")
		}
	}
}

func TestNiceWeightClamping(t *testing.T) {
	if niceWeight(22, -5) != 22 || niceWeight(22, 0) != 22 {
		t.Error("nice <= 0 should weigh 22")
	}
	if niceWeight(22, 19) != 3 || niceWeight(22, 25) != 3 {
		t.Error("nice >= 19 should weigh 3")
	}
	if niceWeight(22, 10) != 12 {
		t.Error("nice 10 should weigh 12")
	}
	if niceWeight(24, 19) != 5 {
		t.Error("raised base should lift the floor")
	}
}

// TestRunDropsDeadProcesses: Run drops processes that died before it began
// and keeps the survivors in spawn order; one that dies during the Run is
// dropped by the next.
func TestRunDropsDeadProcesses(t *testing.T) {
	m := testMachine(t, 14)
	a := m.Spawn("a", Host, 0, MB, hog{})
	b := m.Spawn("b", Host, 0, MB, hog{})
	c := m.Spawn("c", Host, 0, MB, &oneBurst{d: 100 * time.Millisecond})
	d := m.Spawn("d", Guest, 0, MB, hog{})
	b.Kill()
	m.Run(time.Second)
	if got := m.Processes(); len(got) != 3 || got[0] != a || got[1] != c || got[2] != d {
		t.Fatalf("after the first Run: %v, want a c d", names(got))
	}
	m.Run(time.Second)
	if got := m.Processes(); len(got) != 2 || got[0] != a || got[1] != d {
		t.Fatalf("after the second Run: %v, want a d", names(got))
	}
	if msg := m.CheckAggregates(); msg != "" {
		t.Error(msg)
	}
}

func names(ps []*Process) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}
