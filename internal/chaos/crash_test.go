package chaos

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ishare"
)

func TestPlanCrashesDeterministicAndMerged(t *testing.T) {
	targets := []string{"shard-0", "shard-1", "broker"}
	a := PlanCrashes(42, targets, 12, time.Minute, 2*time.Second, 8*time.Second)
	b := PlanCrashes(42, targets, 12, time.Minute, 2*time.Second, 8*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule from 12 requested events")
	}
	c := PlanCrashes(43, targets, 12, time.Minute, 2*time.Second, 8*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Per target: windows sorted and non-overlapping after merging.
	last := make(map[string]time.Duration)
	for _, e := range a {
		if end, ok := last[e.Target]; ok && e.At <= end {
			t.Fatalf("overlapping windows survived merge for %s: starts at %v, previous ends %v", e.Target, e.At, end)
		}
		last[e.Target] = e.At + e.Down
		if e.Down < 2*time.Second || e.Down > 16*time.Second {
			t.Fatalf("down window %v outside sane range", e.Down)
		}
	}
}

// recorder is a Process that logs its transitions.
type recorder struct {
	name   string
	events *[]string
	down   bool
}

func (r *recorder) Crash() error {
	if r.down {
		return fmt.Errorf("%s crashed twice", r.name)
	}
	r.down = true
	*r.events = append(*r.events, "kill:"+r.name)
	return nil
}

func (r *recorder) Restart() error {
	if !r.down {
		return fmt.Errorf("%s revived while up", r.name)
	}
	r.down = false
	*r.events = append(*r.events, "revive:"+r.name)
	return nil
}

func TestCrashRunnerFiresInOrder(t *testing.T) {
	var events []string
	procs := map[string]Process{
		"a": &recorder{name: "a", events: &events},
		"b": &recorder{name: "b", events: &events},
	}
	schedule := []CrashEvent{
		{Target: "a", At: 10 * time.Second, Down: 5 * time.Second},
		{Target: "b", At: 12 * time.Second, Down: 10 * time.Second},
		{Target: "a", At: 20 * time.Second, Down: 3 * time.Second},
	}
	r, err := NewRunner(procs, schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.Down("a") || r.Down("b") {
		t.Fatalf("wrong down set at t=11s: a=%v b=%v", r.Down("a"), r.Down("b"))
	}
	crashes, revives, err := r.FinishAll()
	if err != nil {
		t.Fatal(err)
	}
	if crashes != 3 || revives != 3 {
		t.Fatalf("crashes=%d revives=%d, want 3/3", crashes, revives)
	}
	want := []string{"kill:a", "kill:b", "revive:a", "kill:a", "revive:b", "revive:a"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("event order:\n got %v\nwant %v", events, want)
	}
	if r.Down("a") || r.Down("b") {
		t.Fatal("FinishAll left a process down")
	}
	if _, err := NewRunner(procs, []CrashEvent{{Target: "ghost", At: time.Second, Down: time.Second}}); err == nil {
		t.Fatal("unbound target accepted")
	}
}

// TestCrashSoak is the invariant harness of this PR: many fixed-seed
// randomized crash schedules against a durable two-shard registry, with
// fsync latency and clock skew injected on some seeds, checking after
// every schedule that
//
//   - no acked registration is lost: every register/heartbeat batch the
//     fleet got an OK for is served again after the final recovery, and a
//     successful heartbeat never reports an acked node as missing;
//   - (every 5th seed) job submission through a breaker-armed broker
//     stays exactly-once across shard death — node-side execution
//     counts, not broker-side bookkeeping.
//
// Everything is virtual-time and seed-deterministic: fifty schedules
// replay identically on every run and cost seconds. Run with -race.
func TestCrashSoak(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			runCrashSchedule(t, int64(seed))
		})
	}
}

func runCrashSchedule(t *testing.T, seed int64) {
	t.Helper()
	opt := ishare.RegistryOptions{
		TTL: time.Minute,
		WAL: &ishare.WALOptions{Dir: t.TempDir()},
	}
	if seed%3 == 0 {
		opt.WAL.FsyncDelay = 2 * time.Millisecond // slow-disk seed
	}
	if seed%4 == 0 {
		opt.Now = SkewedClock(2 * time.Second) // mis-set clock seed
	}
	s, err := ishare.NewShardedRegistryWithOptions(2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addrs := s.Addrs()

	const horizon = 60 * time.Second
	schedule := PlanCrashes(seed, []string{"shard-0", "shard-1"}, 4, horizon, 4*time.Second, 12*time.Second)
	procs := map[string]Process{
		"shard-0": ProcessFunc{CrashFn: func() error { return s.CrashShard(0) }, RestartFn: func() error { return s.RestartShard(0) }},
		"shard-1": ProcessFunc{CrashFn: func() error { return s.CrashShard(1) }, RestartFn: func() error { return s.RestartShard(1) }},
	}
	runner, err := NewRunner(procs, schedule)
	if err != nil {
		t.Fatal(err)
	}

	c := &ishare.Client{Shards: addrs, Timeout: time.Second, Retry: ishare.RetryPolicy{MaxAttempts: 1}}
	ctx := context.Background()

	// Exactly-once seeds run one real node and a breaker-armed broker.
	var node *ishare.Node
	var broker *ishare.Broker
	submitted := 0
	if seed%5 == 0 {
		node = startNode(t, ishare.NodeConfig{
			Name:                fmt.Sprintf("exec-%02d", seed),
			RegistryAddrs:       addrs,
			HeartbeatEvery:      20 * time.Millisecond,
			HeartbeatMaxBackoff: 80 * time.Millisecond,
		})
		broker = &ishare.Broker{
			Client:           c,
			DiscoverLimit:    16,
			CacheTTL:         time.Minute,
			MaxRounds:        2,
			RoundDelay:       5 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  150 * time.Millisecond,
		}
	}

	ackedGen := make(map[string]int64) // node -> gen of last acked write

	const steps = 12
	for step := 1; step <= steps; step++ {
		if err := runner.Advance(horizon * time.Duration(step) / steps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Two new machines join per step. Nothing runs behind them, and the
		// broker ranks them beside the real node: their loopback addresses
		// refuse its dials at once, where an address off the host would hold
		// each dial for the client's full timeout.
		for k := 0; k < 2; k++ {
			name := fmt.Sprintf("m-%02d-%02d-%d", seed, step, k)
			d := ishare.NodeDigest{
				Name: name, Addr: fmt.Sprintf("127.8.%d.%d:70", step, k),
				State: "S1(full)", Load: 0.1 * float64(k), Gen: 1,
				UnixMS: time.Now().UnixMilli(),
			}
			if err := c.RegisterBatch(ctx, addrs[s.Owner(name)], []ishare.NodeDigest{d}); err == nil {
				ackedGen[name] = 1
			}
		}
		// Every known machine heartbeats with a rising generation. A shard
		// that acks must know every acked name it owns — a durable shard
		// never asks an acked node to re-register.
		gen := int64(step + 1)
		for i := range addrs {
			var batch []ishare.NodeDigest
			for name := range ackedGen {
				if s.Owner(name) == i {
					batch = append(batch, ishare.NodeDigest{
						Name: name, State: "S2(reduced)", Gen: gen,
						UnixMS: time.Now().UnixMilli(),
					})
				}
			}
			if len(batch) == 0 {
				continue
			}
			missing, err := c.HeartbeatBatch(ctx, addrs[i], batch)
			if err != nil {
				continue // shard down: nothing acked
			}
			if len(missing) != 0 {
				t.Fatalf("seed %d step %d: durable shard %d lost acked registrations: %v", seed, step, i, missing)
			}
			for _, d := range batch {
				ackedGen[d.Name] = gen
			}
		}
		// Exactly-once seeds submit through whatever is currently alive.
		if broker != nil && step%4 == 2 {
			spec := ishare.JobSpec{Name: fmt.Sprintf("job-%02d-%02d", seed, step), CPUSeconds: 2}
			for attempt := 0; attempt < 40; attempt++ {
				if _, _, err := broker.SubmitBest(ctx, spec); err == nil {
					submitted++
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}

	if _, _, err := runner.FinishAll(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Recovery invariant: every acked registration is served again, at a
	// generation no older than its last acked write.
	for i, addr := range addrs {
		nodes, err := c.ListShard(ctx, addr, 0)
		if err != nil {
			t.Fatalf("seed %d: list shard %d after recovery: %v", seed, i, err)
		}
		got := make(map[string]int64, len(nodes))
		for _, n := range nodes {
			got[n.Name] = n.Gen
		}
		for name, gen := range ackedGen {
			if s.Owner(name) != i {
				continue
			}
			g, ok := got[name]
			if !ok {
				t.Fatalf("seed %d: acked registration %s lost from shard %d", seed, name, i)
			}
			if g < gen {
				t.Fatalf("seed %d: %s recovered at gen %d, acked gen %d", seed, name, g, gen)
			}
		}
	}

	// Exactly-once invariant, checked on the executing node itself.
	if node != nil {
		counts := node.ExecutionCounts()
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("seed %d: job %s executed %d times", seed, id, n)
			}
		}
		if submitted > 0 && len(counts) == 0 {
			t.Fatalf("seed %d: %d submissions acked but node executed nothing", seed, submitted)
		}
	}
}
