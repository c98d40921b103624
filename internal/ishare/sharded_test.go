package ishare

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestRand mirrors the node's name-seeded jitter source.
func newTestRand(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(fnv64a(name))))
}

func startSharded(t *testing.T, n int, ttl time.Duration) *ShardedRegistry {
	t.Helper()
	s, err := NewShardedRegistryWithOptions(n, RegistryOptions{TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// nowMS keeps digest timestamps fresh relative to broker TTL checks.
func nowMS() int64 { return time.Now().UnixMilli() }

func TestRegisterBatchAndRankedList(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	c := fastClient(reg.Addr())
	batch := []NodeDigest{
		{Name: "busy", Addr: "10.0.0.3:1", State: "S2(lowest-priority)", Load: 0.6, Gen: 1, UnixMS: nowMS()},
		{Name: "idle", Addr: "10.0.0.1:1", State: "S1(full)", Load: 0.1, Gen: 1, UnixMS: nowMS()},
		{Name: "gone", Addr: "10.0.0.4:1", State: "S5(machine-unavail)", Gen: 1, UnixMS: nowMS()},
		{Name: "warm", Addr: "10.0.0.2:1", State: "S1(full)", Load: 0.3, Gen: 1, UnixMS: nowMS()},
		{Name: "mute", Addr: "10.0.0.5:1"}, // never reported a digest
	}
	if err := c.RegisterBatch(ctx, reg.Addr(), batch); err != nil {
		t.Fatal(err)
	}

	// The ranked form: alive S1/S2 nodes only, best class first, load as
	// the tiebreak; the unavailable and the digest-less node excluded.
	ranked, err := c.ListShard(ctx, reg.Addr(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range ranked {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, ","); got != "idle,warm,busy" {
		t.Fatalf("ranked list = %s, want idle,warm,busy", got)
	}

	// The limit truncates from the best bucket. Within a bucket the pick
	// is arbitrary (ranked discovery is O(limit), not a bucket scan), so
	// either S1 node is a correct answer — but never S2 or S5.
	top, err := c.ListShard(ctx, reg.Addr(), 1)
	if err != nil || len(top) != 1 || (top[0].Name != "idle" && top[0].Name != "warm") {
		t.Fatalf("limit=1 list = %+v, %v", top, err)
	}

	// The full listing still returns everything, S5 and no digest included.
	all, err := c.ListShard(ctx, reg.Addr(), 0)
	if err != nil || len(all) != 5 {
		t.Fatalf("full list = %+v, %v", all, err)
	}
}

func TestRegisterBatchRejectsIncompleteEntries(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	c := fastClient(reg.Addr())
	err := c.RegisterBatch(ctx, reg.Addr(), []NodeDigest{{Name: "ok", Addr: "10.0.0.1:1"}, {Name: "no-addr"}})
	if err == nil {
		t.Fatal("batch with an addressless entry accepted")
	}
}

func TestHeartbeatBatchReportsMissing(t *testing.T) {
	reg := startRegistry(t, 100*time.Millisecond)
	c := fastClient(reg.Addr())
	if err := c.RegisterBatch(ctx, reg.Addr(), []NodeDigest{
		{Name: "known", Addr: "10.0.0.1:1", State: "S1(full)", Gen: 1, UnixMS: nowMS()},
	}); err != nil {
		t.Fatal(err)
	}
	missing, err := c.HeartbeatBatch(ctx, reg.Addr(), []NodeDigest{
		{Name: "known", State: "S2(lowest-priority)", Gen: 2, UnixMS: nowMS()},
		{Name: "stranger", Gen: 1, UnixMS: nowMS()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != "stranger" {
		t.Fatalf("missing = %v, want [stranger]", missing)
	}
	// The carried digest updated the known node's state.
	ranked, err := c.ListShard(ctx, reg.Addr(), 10)
	if err != nil || len(ranked) != 1 || !strings.HasPrefix(ranked[0].State, "S2") {
		t.Fatalf("ranked after digest heartbeat = %+v, %v", ranked, err)
	}
}

func TestShardedListMergesAllShards(t *testing.T) {
	s := startSharded(t, 3, time.Minute)
	c := &Client{Shards: s.Addrs(), Timeout: time.Second}
	// Route each registration to the shard the ring says owns the name —
	// exactly what the load driver does at scale.
	byShard := make(map[int][]NodeDigest)
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("node-%02d", i)
		own := s.Owner(name)
		byShard[own] = append(byShard[own], NodeDigest{
			Name: name, Addr: fmt.Sprintf("10.0.%d.%d:1", own, i),
			State: "S1(full)", Gen: 1, UnixMS: nowMS(),
		})
	}
	spread := 0
	for own, batch := range byShard {
		if err := c.RegisterBatch(ctx, s.Addrs()[own], batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("ring sent all 30 nodes to %d shard(s); want spread", spread)
	}
	all, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 30 {
		t.Fatalf("merged list has %d nodes, want 30", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name > all[i].Name {
			t.Fatalf("merged list unsorted at %d: %q > %q", i, all[i-1].Name, all[i].Name)
		}
	}
}

func TestShardedBrokerMergesRankedCandidates(t *testing.T) {
	s := startSharded(t, 2, time.Minute)
	c := &Client{Shards: s.Addrs(), Timeout: time.Second}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("node-%02d", i)
		state := "S1(full)"
		if i%3 == 0 {
			state = "S2(lowest-priority)"
		}
		d := NodeDigest{Name: name, Addr: fmt.Sprintf("10.1.0.%d:1", i),
			State: state, Load: float64(i) / 20, Gen: 1, UnixMS: nowMS()}
		if err := c.RegisterBatch(ctx, s.Addrs()[s.Owner(name)], []NodeDigest{d}); err != nil {
			t.Fatal(err)
		}
	}
	// The ring hashes the shards' ephemeral addresses, so one shard may
	// own any number of the 12 names: a per-shard limit of 12 lets each
	// shard's ranked list hold the whole fleet whatever the split.
	b := &Broker{Client: c, DiscoverLimit: 12}
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 12 {
		t.Fatalf("got %d candidates, want 12", len(cands))
	}
	// Digest ranking across both shards' lists: S1 before S2, ascending
	// load within a class.
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Score > cands[i].Score {
			t.Fatalf("candidates unsorted by score at %d: %+v", i, cands)
		}
		if cands[i-1].Score == cands[i].Score && cands[i-1].Node.Load > cands[i].Node.Load {
			t.Fatalf("candidates unsorted by load at %d: %+v", i, cands)
		}
	}
}

// recordingDialer dials plain TCP and remembers every address it dialed.
type recordingDialer struct {
	mu    sync.Mutex
	addrs []string
}

func (d *recordingDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.addrs = append(d.addrs, addr)
	d.mu.Unlock()
	return net.DialTimeout("tcp", addr, timeout)
}

// TestCandidatesDialsOnlyShards: discovery over a fleet of real, dialable
// nodes talks to the registry shards and to nothing else, even for a
// zero-value Broker: placement ranks the digests the shards hold.
func TestCandidatesDialsOnlyShards(t *testing.T) {
	s := startSharded(t, 2, time.Minute)
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		startNode(t, NodeConfig{Name: name, RegistryAddrs: s.Addrs(), HostLoad: 0.05})
	}
	rec := &recordingDialer{}
	b := &Broker{Client: &Client{Shards: s.Addrs(), Dialer: rec}}
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want the 4 nodes: %+v", len(cands), cands)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, addr := range rec.addrs {
		if !slices.Contains(s.Addrs(), addr) {
			t.Errorf("discovery dialed %s, which is not a shard (dialed %v)", addr, rec.addrs)
		}
	}
}

// TestShardedBrokerServesStaleForLostShardOnly: the ring hashes the
// shards' ephemeral addresses, so which shard owns a name changes from run
// to run; names are drawn until each shard owns at least three.
func TestShardedBrokerServesStaleForLostShardOnly(t *testing.T) {
	s := startSharded(t, 2, time.Minute)
	c := &Client{Shards: s.Addrs(), Timeout: 300 * time.Millisecond,
		Retry: RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 1}}
	perShard := make([]int, 2)
	n := 0
	for ; n < 256 && (perShard[0] < 3 || perShard[1] < 3); n++ {
		name := fmt.Sprintf("node-%03d", n)
		own := s.Owner(name)
		perShard[own]++
		d := NodeDigest{Name: name, Addr: fmt.Sprintf("10.2.0.%d:1", n),
			State: "S1(full)", Gen: 1, UnixMS: nowMS()}
		if err := c.RegisterBatch(ctx, s.Addrs()[own], []NodeDigest{d}); err != nil {
			t.Fatal(err)
		}
	}
	if perShard[0] < 3 || perShard[1] < 3 {
		t.Fatalf("ring did not spread %d names: %v", n, perShard)
	}
	b := &Broker{Client: c, DiscoverLimit: n, CacheTTL: time.Minute}
	if cands, err := b.Candidates(ctx); err != nil || len(cands) != n {
		t.Fatalf("warm discovery = %d cands, %v; want %d", len(cands), err, n)
	}

	// Losing one shard must not lose the other shard's slice: its nodes
	// come back from that shard's cache, marked stale.
	s.Shard(0).Close()
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatalf("discovery with one shard down: %v", err)
	}
	if len(cands) != n {
		t.Fatalf("got %d candidates with one shard down, want %d (live + cached)", len(cands), n)
	}
	m := b.Metrics()
	if m.ShardErrors == 0 || m.StaleServes == 0 {
		t.Fatalf("metrics after shard loss = %+v, want ShardErrors and StaleServes > 0", m)
	}
	if m.RegistryErrors != 0 {
		t.Fatalf("partial shard loss counted as full discovery failure: %+v", m)
	}

	// With every shard down a broker whose cache is cold has nothing to
	// serve: it returns the last shard error and counts one registry
	// error. A broker with no shards at all says so.
	s.Shard(1).Close()
	cold := &Broker{Client: c, DiscoverLimit: n, CacheTTL: time.Minute}
	if cands, err := cold.Candidates(ctx); err == nil || err == errNoShards {
		t.Fatalf("all shards down, cold cache: %d candidates, err = %v; want a shard error", len(cands), err)
	}
	if m := cold.Metrics(); m.RegistryErrors != 1 {
		t.Fatalf("metrics with every shard down = %+v, want RegistryErrors 1", m)
	}
	if _, err := (&Broker{Client: &Client{}}).Candidates(ctx); err != errNoShards {
		t.Fatalf("no shards: err = %v, want %v", err, errNoShards)
	}
}

// A caller-supplied Obs registry must win even when the broker already
// lazily created its private one — the counters move to the caller's
// registry instead of silently vanishing into the private instance.
func TestBrokerAdoptsLateObsRegistry(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	b := &Broker{Client: fastClient(reg.Addr())}
	// First use builds the lazy private registry.
	if _, err := b.Candidates(ctx); err != nil {
		t.Fatal(err)
	}
	private := b.Obs
	if private == nil {
		t.Fatal("no private registry was created")
	}

	// The demo-binary pattern: attach a shared registry after construction.
	shared := obs.NewRegistry()
	b.Obs = shared
	reg.Close()
	if _, err := b.Candidates(ctx); err == nil {
		t.Fatal("discovery against a closed registry succeeded")
	}
	if b.Obs != shared {
		t.Fatalf("broker replaced the caller's registry: %p != %p", b.Obs, shared)
	}
	errs := shared.Counter("fgcs_broker_registry_errors_total", "discovery attempts that failed with no usable cache on any shard")
	if errs.Value() == 0 {
		t.Fatal("counters did not move to the caller-supplied registry")
	}
	if m := b.Metrics(); m.RegistryErrors != int(errs.Value()) {
		t.Fatalf("Metrics() = %+v not backed by the caller's registry (%d)", m, errs.Value())
	}
}

func TestHeartbeatJitterBoundsAndDeterminism(t *testing.T) {
	mk := func(name string) *Node {
		return &Node{hbRand: newTestRand(name)}
	}
	base := 100 * time.Millisecond
	a1, a2 := mk("alpha"), mk("alpha")
	var diffFromBase bool
	for i := 0; i < 100; i++ {
		d1, d2 := a1.jitterHB(base), a2.jitterHB(base)
		if d1 != d2 {
			t.Fatalf("same-name jitter diverged at step %d: %v vs %v", i, d1, d2)
		}
		if d1 < 90*time.Millisecond || d1 > 110*time.Millisecond {
			t.Fatalf("jittered interval %v outside ±10%% of %v", d1, base)
		}
		if d1 != base {
			diffFromBase = true
		}
	}
	if !diffFromBase {
		t.Fatal("jitter never moved the interval")
	}
	// Different names must not share a schedule (that is the point).
	alpha, beta := mk("alpha"), mk("beta")
	same := true
	for i := 0; i < 20; i++ {
		if alpha.jitterHB(base) != beta.jitterHB(base) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two differently named nodes produced identical jitter schedules")
	}
}
