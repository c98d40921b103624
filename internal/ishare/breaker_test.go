package ishare

import (
	"context"
	"testing"
	"time"
)

// fakeClock is a hand-stepped clock for breaker state-machine tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	br := newBreaker(3, time.Second, clk.now)

	// Closed: everything allowed; failures below threshold don't open.
	for i := 0; i < 2; i++ {
		if !br.allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		if br.result(false) {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
	}
	// A success resets the consecutive-failure count.
	if !br.allow() {
		t.Fatal("closed breaker denied after failures")
	}
	br.result(true)
	for i := 0; i < 2; i++ {
		br.allow()
		if br.result(false) {
			t.Fatal("failure count not reset by success")
		}
	}
	// Third consecutive failure trips it — exactly once.
	br.allow()
	if !br.result(false) {
		t.Fatal("threshold-th failure did not report opening")
	}
	if br.allow() {
		t.Fatal("open breaker allowed a call")
	}

	// After the cooldown: exactly one half-open probe.
	clk.advance(1100 * time.Millisecond)
	if !br.allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	if br.allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe re-arms the cooldown without re-counting as an open.
	if br.result(false) {
		t.Fatal("failed probe reported as a fresh open")
	}
	if br.allow() {
		t.Fatal("breaker not re-armed after failed probe")
	}

	// Successful probe closes it fully.
	clk.advance(1100 * time.Millisecond)
	if !br.allow() {
		t.Fatal("re-armed breaker denied the second probe")
	}
	br.result(true)
	if !br.allow() {
		t.Fatal("breaker not closed after successful probe")
	}
}

// TestBrokerBreakerShortCircuits: with one shard dead, the breaker opens
// after the configured threshold and subsequent discoveries skip the dead
// shard outright while the healthy shard keeps serving.
func TestBrokerBreakerShortCircuits(t *testing.T) {
	s, err := NewShardedRegistryWithOptions(2, RegistryOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	c := &Client{Shards: s.Addrs(), Timeout: 500 * time.Millisecond, Retry: RetryPolicy{MaxAttempts: 1}}
	// The ring hashes the shards' random ports, so ten names may all land
	// on shard 1, and a shard 0 with nothing cached serves nothing stale:
	// names are added until shard 0 owns three.
	var fleet []NodeDigest
	onCrashed := 0
	for i := 0; i < 100 && (i < 10 || onCrashed < 3); i++ {
		d := NodeDigest{Name: nodeName(i), Addr: "10.1.0.1:70", State: "S1(full)", UnixMS: time.Now().UnixMilli()}
		owner := s.Owner(d.Name)
		if err := c.RegisterBatch(ctx, s.Addrs()[owner], []NodeDigest{d}); err != nil {
			t.Fatal(err)
		}
		if owner == 0 {
			onCrashed++
		}
		fleet = append(fleet, d)
	}
	if onCrashed < 3 {
		t.Fatalf("shard 0 owns %d of %d names, want >= 3", onCrashed, len(fleet))
	}

	b := &Broker{Client: c, DiscoverLimit: 32, BreakerThreshold: 2, BreakerCooldown: time.Minute}
	if _, err := b.Candidates(ctx); err != nil {
		t.Fatalf("warm discovery: %v", err)
	}

	if err := s.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	// Two failing rounds trip the breaker; the stale cache keeps the full
	// candidate set flowing throughout.
	for round := 0; round < 4; round++ {
		cands, err := b.Candidates(ctx)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(cands) != len(fleet) {
			t.Fatalf("round %d: %d candidates, want %d", round, len(cands), len(fleet))
		}
	}
	m := b.Metrics()
	if m.BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times, want 1", m.BreakerOpens)
	}
	if m.BreakerShortCircuits < 2 {
		t.Fatalf("only %d short circuits after 4 rounds with a minute cooldown", m.BreakerShortCircuits)
	}
	// Short-circuited rounds still count the shard as failed-but-cached.
	if m.StaleServes < 4 {
		t.Fatalf("stale serves %d, want >=4", m.StaleServes)
	}
}

func nodeName(i int) string {
	return string([]byte{'n', byte('0' + i/10%10), byte('0' + i%10)})
}
