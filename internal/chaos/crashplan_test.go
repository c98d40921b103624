package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// This file is test infrastructure that extends fault injection past the
// transport seam to process death: a deterministic crash/restart scheduler over anything that can
// be killed and revived — registry shards, brokers, whole agents. The
// paper's Table 2 finds ~90% of unavailability events are host reboots
// with sub-minute outages, so the canonical schedule is many short
// down-windows at randomized times; PlanCrashes generates exactly that,
// reproducibly from a seed, and Runner fires the kills and revivals as a
// virtual clock is stepped forward. Nothing here sleeps: tests advance
// virtual time explicitly, so fifty randomized crash schedules replay in
// seconds and identically on every run.

// Process is anything the crash scheduler can kill and revive. Crash
// must behave like SIGKILL (no drain, no final flush); Restart must
// bring the process back on the same address.
type Process interface {
	Crash() error
	Restart() error
}

// ProcessFunc adapts a pair of closures to Process.
type ProcessFunc struct {
	CrashFn   func() error
	RestartFn func() error
}

func (p ProcessFunc) Crash() error { return p.CrashFn() }

func (p ProcessFunc) Restart() error { return p.RestartFn() }

// CrashEvent is one scheduled kill: Target goes down at virtual time At
// and is revived Down later.
type CrashEvent struct {
	Target string
	At     time.Duration
	Down   time.Duration
}

// PlanCrashes draws n crash events over the virtual horizon, spread
// across the named targets, each with a down-window uniform in
// [minDown, maxDown]. The schedule is a pure function of the seed.
// Overlapping windows for one target are merged at plan time (a process
// cannot die twice before being revived), so the returned schedule is
// directly executable.
func PlanCrashes(seed int64, targets []string, n int, horizon, minDown, maxDown time.Duration) []CrashEvent {
	if len(targets) == 0 || n <= 0 || horizon <= 0 {
		return nil
	}
	if minDown <= 0 {
		minDown = horizon / 20
	}
	if maxDown < minDown {
		maxDown = minDown
	}
	rng := rand.New(rand.NewSource(seed))
	perTarget := make(map[string][]CrashEvent)
	for i := 0; i < n; i++ {
		t := targets[rng.Intn(len(targets))]
		at := time.Duration(rng.Int63n(int64(horizon)))
		down := minDown
		if maxDown > minDown {
			down += time.Duration(rng.Int63n(int64(maxDown - minDown)))
		}
		perTarget[t] = append(perTarget[t], CrashEvent{Target: t, At: at, Down: down})
	}
	var out []CrashEvent
	for _, t := range targets {
		evs := perTarget[t]
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		// Merge overlapping down-windows for this target.
		var merged []CrashEvent
		for _, e := range evs {
			if len(merged) > 0 {
				last := &merged[len(merged)-1]
				if e.At <= last.At+last.Down {
					if end := e.At + e.Down; end > last.At+last.Down {
						last.Down = end - last.At
					}
					continue
				}
			}
			merged = append(merged, e)
		}
		out = append(out, merged...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// crashAction is one point on the runner's timeline: a kill or a revival.
type crashAction struct {
	at      time.Duration
	target  string
	restart bool
}

// Runner executes a crash schedule against live processes as its virtual
// clock is advanced. It is single-threaded by design: the owning test
// calls Advance between workload steps, and every kill/revival happens
// synchronously inside that call, so assertions always see a quiescent
// schedule.
type Runner struct {
	procs   map[string]Process
	actions []crashAction
	next    int
	now     time.Duration
	downs   map[string]bool
	crashes int
	revives int
}

// NewRunner binds a schedule to its processes. Events naming an unbound
// target are an error — a schedule that silently skips kills would pass
// vacuously.
func NewRunner(procs map[string]Process, schedule []CrashEvent) (*Runner, error) {
	r := &Runner{procs: procs, downs: make(map[string]bool)}
	for _, e := range schedule {
		if _, ok := procs[e.Target]; !ok {
			return nil, fmt.Errorf("chaos: crash schedule targets unbound process %q", e.Target)
		}
		r.actions = append(r.actions, crashAction{at: e.At, target: e.Target})
		r.actions = append(r.actions, crashAction{at: e.At + e.Down, target: e.Target, restart: true})
	}
	sort.SliceStable(r.actions, func(i, j int) bool {
		if r.actions[i].at != r.actions[j].at {
			return r.actions[i].at < r.actions[j].at
		}
		// A revival due at the same instant as the next kill runs first.
		return r.actions[i].restart && !r.actions[j].restart
	})
	return r, nil
}

// Advance steps the virtual clock to t, firing every kill and revival
// due on the way, in order. It returns the first process error.
func (r *Runner) Advance(t time.Duration) error {
	if t > r.now {
		r.now = t
	}
	for r.next < len(r.actions) && r.actions[r.next].at <= r.now {
		a := r.actions[r.next]
		r.next++
		if a.restart {
			if !r.downs[a.target] {
				continue
			}
			if err := r.procs[a.target].Restart(); err != nil {
				return fmt.Errorf("chaos: restarting %s at %v: %w", a.target, a.at, err)
			}
			r.downs[a.target] = false
			r.revives++
			continue
		}
		if r.downs[a.target] {
			continue
		}
		if err := r.procs[a.target].Crash(); err != nil {
			return fmt.Errorf("chaos: crashing %s at %v: %w", a.target, a.at, err)
		}
		r.downs[a.target] = true
		r.crashes++
	}
	return nil
}

// FinishAll drives the clock past the last scheduled action, reviving
// everything still down, and reports how many kills and revivals fired.
func (r *Runner) FinishAll() (crashes, revives int, err error) {
	last := r.now
	if n := len(r.actions); n > 0 {
		if end := r.actions[n-1].at; end > last {
			last = end
		}
	}
	if err := r.Advance(last + 1); err != nil {
		return r.crashes, r.revives, err
	}
	return r.crashes, r.revives, nil
}

// Down reports whether the named target is currently crashed.
func (r *Runner) Down(target string) bool { return r.downs[target] }

// Now returns the runner's virtual clock.
func (r *Runner) Now() time.Duration { return r.now }

// SkewedClock returns a clock offset from wall time by skew — the
// injectable clock fault for components that accept a Now function. A
// registry shard on a skewed clock is the paper's mis-set lab machine:
// its liveness judgments and WAL stamps drift from its peers', and the
// invariant harness checks the control plane converges anyway.
func SkewedClock(skew time.Duration) func() time.Time {
	return func() time.Time { return time.Now().Add(skew) }
}
