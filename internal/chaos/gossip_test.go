package chaos

import (
	"testing"
	"time"

	"repro/internal/ishare"
)

// The tentpole resilience claim of the sharded control plane: with EVERY
// registry shard partitioned away, a broker still places jobs, because
// node availability spreads peer-to-peer over gossip. The schedule is
// fully deterministic — gossip rounds are driven manually, the partition
// is scripted, and the broker's caches are never warmed.
func TestBrokerPlacesThroughFullControlPlanePartition(t *testing.T) {
	sharded, err := ishare.NewShardedRegistryWithOptions(2, ishare.RegistryOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	inj := New(1)

	// Three published nodes in a gossip seed chain: c knows b, b knows a.
	a := startNode(t, ishare.NodeConfig{Name: "gossip-a", HostLoad: 0.05, Dialer: inj,
		RegistryAddrs: sharded.Addrs(), Gossip: &ishare.GossipConfig{Dialer: inj}})
	b := startNode(t, ishare.NodeConfig{Name: "gossip-b", HostLoad: 0.05, Dialer: inj,
		RegistryAddrs: sharded.Addrs(), Gossip: &ishare.GossipConfig{Peers: []string{a.Addr()}, Dialer: inj}})
	c := startNode(t, ishare.NodeConfig{Name: "gossip-c", HostLoad: 0.05, Dialer: inj,
		RegistryAddrs: sharded.Addrs(), Gossip: &ishare.GossipConfig{Peers: []string{b.Addr()}, Dialer: inj}})

	// The whole control plane goes dark. Node-to-node traffic still flows.
	for _, addr := range sharded.Addrs() {
		inj.Partition(addr)
	}

	// Two manual anti-entropy rounds: c's digest reaches a through b.
	c.Gossiper().Tick(ctx)
	b.Gossiper().Tick(ctx)

	// The broker never saw a healthy registry (its caches are cold) but
	// participates in gossip as a listener peer seeded with one node.
	gossip := ishare.NewGossiper(ishare.GossipConfig{Peers: []string{a.Addr()}, Dialer: inj})
	t.Cleanup(gossip.Close)
	if gossip.Tick(ctx) == 0 {
		t.Fatal("broker gossiper could not reach its seed peer")
	}
	if gossip.Len() < 3 {
		t.Fatalf("gossip store has %d digests, want all 3 nodes", gossip.Len())
	}

	broker := &ishare.Broker{
		Client: &ishare.Client{Shards: sharded.Addrs(), Dialer: inj, Timeout: 300 * time.Millisecond,
			Retry: ishare.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 1}},
		DiscoverLimit: 8,
		Gossip:        gossip,
	}
	cands, err := broker.Candidates(ctx)
	if err != nil {
		t.Fatalf("discovery with all shards partitioned: %v", err)
	}
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3 gossip-learned nodes", len(cands))
	}
	for _, cand := range cands {
		if !cand.Stale {
			t.Fatalf("gossip-derived candidate not marked stale: %+v", cand)
		}
	}

	res, node, err := broker.SubmitBest(ctx, ishare.JobSpec{Name: "through-the-dark", CPUSeconds: 30})
	if err != nil {
		t.Fatalf("placement through full partition: %v", err)
	}
	if !res.Completed {
		t.Fatalf("job did not complete: %+v", res)
	}
	if node.Name == "" {
		t.Fatal("no placement node reported")
	}
	m := broker.Metrics()
	if m.GossipServes == 0 {
		t.Fatalf("metrics = %+v, want GossipServes > 0", m)
	}
	if m.StaleServes != 0 {
		t.Fatalf("metrics = %+v, want no cache serves (caches were cold)", m)
	}

	// Heal the shards: the next discovery goes back to the registry path
	// (the nodes re-register via heartbeat backoff).
	for _, addr := range sharded.Addrs() {
		inj.Heal(addr)
	}
}
