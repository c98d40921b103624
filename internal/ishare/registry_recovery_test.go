package ishare

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// nameIDs is the shard's live nodes by name, read off its entries rather
// than its name index. r.mu is held or the shard is idle.
func nameIDs(r *Registry) map[string]uint32 {
	out := make(map[string]uint32)
	for id := range r.entries {
		if r.liveLocked(id) {
			out[r.entries[id].name()] = uint32(id)
		}
	}
	return out
}

// registryStateSnapshot captures the comparable durable state of a
// registry: every entry's info and liveness stamp.
func registryStateSnapshot(r *Registry) map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := nameIDs(r)
	out := make(map[string]string, len(ids))
	for name, id := range ids {
		e := &r.entries[id]
		out[name] = fmt.Sprintf("%s|%s|%.6f|%d|%d|%d",
			e.addr(), r.state(id), e.load, e.gen, unixMS(e.seen), r.bucket(id))
	}
	return out
}

func testFleetDigests(n int, stamp int64) []NodeDigest {
	out := make([]NodeDigest, n)
	for i := range out {
		state := "S1(full)"
		if i%3 == 1 {
			state = "S2(reduced)"
		}
		out[i] = NodeDigest{
			Name: fmt.Sprintf("m%03d", i), Addr: fmt.Sprintf("10.0.0.%d:70", i),
			State: state, Load: float64(i) / 100, Gen: int64(i%5 + 1), UnixMS: stamp,
		}
	}
	return out
}

// TestRegistryCrashRecovery: a durable registry killed without any drain
// or fsync recovers every acked mutation from its WAL.
func TestRegistryCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{TTL: time.Minute, WAL: &WALOptions{Dir: dir}}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	if resp := r.handle(Request{Op: "register_batch", Digests: testFleetDigests(40, 1000)}); !resp.OK {
		t.Fatalf("register_batch: %s", resp.Error)
	}
	if resp := r.handle(Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "m000", State: "S2(reduced)", Gen: 9}}}); !resp.OK {
		t.Fatalf("heartbeat: %s", resp.Error)
	}
	if resp := r.handle(Request{Op: "unregister", Names: []string{"m017"}}); !resp.OK {
		t.Fatalf("unregister: %s", resp.Error)
	}
	want := registryStateSnapshot(r)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.RecoveredRecords() == 0 {
		t.Fatal("recovery replayed zero records")
	}
	got := registryStateSnapshot(r2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %s differs after recovery:\n got %s\nwant %s", k, got[k], v)
		}
	}
	if _, ok := got["m017"]; ok {
		t.Fatal("unregistered node resurrected by recovery")
	}
}

// TestShutdownRestartIdenticalState: the graceful path — drain, fsync,
// close — followed by a restart over the same directory yields exactly
// the same registry state, entry for entry.
func TestShutdownRestartIdenticalState(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{TTL: time.Minute, WAL: &WALOptions{Dir: dir}}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	r.handle(Request{Op: "register_batch", Digests: testFleetDigests(25, 2000)})
	r.handle(Request{Op: "heartbeat_batch", Digests: []NodeDigest{
		{Name: "m003", State: "S2(reduced)", Load: 0.5, Gen: 11, UnixMS: 2500},
	}})
	want := registryStateSnapshot(r)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	r2, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := registryStateSnapshot(r2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %s differs after drained restart:\n got %s\nwant %s", k, got[k], v)
		}
	}
}

// TestHeartbeatRefreshRecordsRecover: heartbeats that advance nothing
// but liveness are logged as compact refresh records — far smaller than
// full entries — and the refreshed stamps still survive a crash.
func TestHeartbeatRefreshRecordsRecover(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{TTL: time.Minute, WAL: &WALOptions{Dir: dir}}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := testFleetDigests(30, 3000)
	if resp := r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
		t.Fatalf("register_batch: %s", resp.Error)
	}
	walPath := filepath.Join(dir, walFileName)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	regBytes := st.Size()

	// Re-send the same digests: every one is a pure liveness refresh.
	time.Sleep(2 * time.Millisecond)
	if resp := r.handle(Request{Op: "heartbeat_batch", Digests: ds}); !resp.OK || len(resp.Missing) > 0 {
		t.Fatalf("heartbeat_batch: %s (missing %d)", resp.Error, len(resp.Missing))
	}
	st, err = os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	hbBytes := st.Size() - regBytes
	if hbBytes <= 0 || hbBytes*2 >= regBytes {
		t.Fatalf("refresh sweep wrote %d WAL bytes vs %d for registration; want the compact form well under half", hbBytes, regBytes)
	}

	want := registryStateSnapshot(r)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := registryStateSnapshot(r2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %s differs after recovery:\n got %s\nwant %s", k, got[k], v)
		}
	}
}

// TestRegistryCompactionSurvivesRestart drives enough mutations through a
// tiny CompactEvery to force snapshot+truncate cycles, then recovers.
func TestRegistryCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{TTL: time.Minute, WAL: &WALOptions{Dir: dir, CompactEvery: 5}}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 7; round++ {
		for _, d := range testFleetDigests(8, int64(3000+round)) {
			d.Gen = int64(round + 1)
			if resp := r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: d.Name, Addr: d.Addr, State: d.State, Load: d.Load, Gen: d.Gen}}}); !resp.OK {
				t.Fatalf("register: %s", resp.Error)
			}
		}
	}
	want := registryStateSnapshot(r)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := registryStateSnapshot(r2)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %s differs after compacted recovery:\n got %s\nwant %s", k, got[k], v)
		}
	}
}

// fillAdmission occupies every inflight slot and queue place of an idle r
// directly: deterministic saturation without racing real handlers.
func fillAdmission(r *Registry) {
	for range cap(r.inflight) {
		r.inflight <- struct{}{}
	}
	for range cap(r.queue) {
		r.queue <- struct{}{}
	}
}

// drainAdmission frees what fillAdmission occupied.
func drainAdmission(r *Registry) {
	for range cap(r.inflight) {
		<-r.inflight
	}
	for range cap(r.queue) {
		<-r.queue
	}
}

// TestRegistryShedsWhenSaturated pins the admission path: with the single
// inflight slot occupied and no queue headroom, a new connection receives
// a structured overload response carrying the 200 ms retry-after hint.
func TestRegistryShedsWhenSaturated(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sheds := shedCounter(r)
	fillAdmission(r)
	defer drainAdmission(r)

	resp, _ := wireExchange(t, r.Addr(), `{"op":"list"}`+"\n")
	if resp.OK || resp.RetryAfterMS != 200 {
		t.Fatalf("saturated registry answered %+v, want a shed with retry_after_ms 200", resp)
	}
	c := &Client{Shards: []string{r.Addr()}, Timeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	_, err = c.ListShard(context.Background(), r.Addr(), 4)
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("saturated registry did not shed: err=%v", err)
	}
	if sheds.Value() == 0 {
		t.Fatal("shed counter not incremented")
	}

	// A queued connection that wins a freed slot is served normally.
	<-r.inflight
	if _, err := c.ListShard(context.Background(), r.Addr(), 4); err != nil {
		t.Fatalf("list after slot freed: %v", err)
	}
	r.inflight <- struct{}{}
}

// TestClientHonorsRetryAfter: an idempotent request shed on the first
// attempt succeeds on a retry after the registry frees capacity, and the
// retry waits at least the hinted 200 ms backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fillAdmission(r)
	release := time.AfterFunc(15*time.Millisecond, func() { drainAdmission(r) })
	defer release.Stop()

	c := &Client{Shards: []string{r.Addr()}, Timeout: 2 * time.Second,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	start := time.Now()
	if _, err := c.ListShard(context.Background(), r.Addr(), 4); err != nil {
		t.Fatalf("list did not recover after shed: %v", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("retry ignored the 200ms retry-after hint: total %v", d)
	}
}

// TestShardedCrashRestartDurable: the deployment-level loop — kill a
// shard mid-fleet, restart it on the same address, and every acked
// registration on that shard is served again.
func TestShardedCrashRestartDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedRegistryWithOptions(2, RegistryOptions{
		TTL: time.Minute, WAL: &WALOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Shards: s.Addrs(), Timeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	ctx := context.Background()

	byShard := make(map[int][]NodeDigest)
	for _, d := range testFleetDigests(60, 4000) {
		i := s.Owner(d.Name)
		byShard[i] = append(byShard[i], d)
	}
	for i, batch := range byShard {
		if err := c.RegisterBatch(ctx, s.Addrs()[i], batch); err != nil {
			t.Fatalf("register shard %d: %v", i, err)
		}
	}

	if err := s.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListShard(ctx, s.Addrs()[0], 4); err == nil {
		t.Fatal("crashed shard still answering")
	}
	if err := s.RestartShard(0); err != nil {
		t.Fatal(err)
	}

	for i, batch := range byShard {
		nodes, err := c.ListShard(ctx, s.Addrs()[i], 0)
		if err != nil {
			t.Fatalf("list shard %d after restart: %v", i, err)
		}
		if len(nodes) != len(batch) {
			t.Fatalf("shard %d: %d nodes after restart, want %d", i, len(nodes), len(batch))
		}
	}
}

// TestShardedRestartVolatile: without a WAL a restarted shard comes back
// empty, and the heartbeat Missing path reports exactly its nodes for
// re-registration — the pre-durability contract still holds.
func TestShardedRestartVolatile(t *testing.T) {
	s, err := NewShardedRegistryWithOptions(2, RegistryOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := &Client{Shards: s.Addrs(), Timeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	ctx := context.Background()
	var shard0 []NodeDigest
	for _, d := range testFleetDigests(30, 5000) {
		if s.Owner(d.Name) == 0 {
			shard0 = append(shard0, d)
		}
	}
	if err := c.RegisterBatch(ctx, s.Addrs()[0], shard0); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	missing, err := c.HeartbeatBatch(ctx, s.Addrs()[0], shard0)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(shard0) {
		t.Fatalf("volatile restart: %d missing, want all %d", len(missing), len(shard0))
	}
}

// TestStampExpiresAtTTL pins the liveness stamp at the TTL boundary: a
// node is alive at exactly the TTL after its stamp and dead a nanosecond
// later, in the full list and in ranked discovery alike. It holds for a
// stamp read from the wall clock (carrying a monotonic reading), one from
// RegistryOptions.Now, and one replayed from the WAL, before and after the
// Unix epoch. Each node is then refreshed by bare heartbeats stamped at and
// then before its stamp; neither may move the stamp back, live or replayed.
func TestStampExpiresAtTTL(t *testing.T) {
	const ttl = time.Minute
	for _, c := range []struct {
		name   string
		at     time.Time
		replay bool
	}{
		{"wall", time.Now(), false},
		{"options-now", time.UnixMilli(1_700_000_000_123), false},
		{"replayed", time.UnixMilli(1_700_000_000_123), true},
		{"replayed-pre-epoch", time.UnixMilli(-86_400_123), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			clock := c.at
			opt := RegistryOptions{TTL: ttl, Now: func() time.Time { return clock },
				WAL: &WALOptions{Dir: t.TempDir(), SyncInterval: -1, CompactEvery: 1 << 30}}
			r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
			if err != nil {
				t.Fatal(err)
			}
			if resp := r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: "n", Addr: "10.0.0.1:70", State: "S1(full)", Gen: 1}}}); !resp.OK {
				t.Fatalf("register: %s", resp.Error)
			}
			for _, back := range []time.Duration{0, 10 * time.Second} {
				clock = c.at.Add(-back)
				if resp := r.handle(Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "n"}}}); !resp.OK {
					t.Fatalf("heartbeat: %s", resp.Error)
				}
			}
			if c.replay {
				if err := r.Crash(); err != nil {
					t.Fatal(err)
				}
				if r, err = NewRegistryWithOptions("127.0.0.1:0", opt); err != nil {
					t.Fatal(err)
				}
			}
			defer r.Close()
			for _, tc := range []struct {
				after time.Duration
				alive bool
			}{{ttl, true}, {ttl + time.Nanosecond, false}} {
				clock = c.at.Add(tc.after)
				all := r.handle(Request{Op: "list"})
				if len(all.Nodes) != 1 || all.Nodes[0].Alive != tc.alive || all.Nodes[0].LastSeenMS != c.at.UnixMilli() {
					t.Errorf("%v after the stamp: list %+v, want alive=%v last_seen_ms=%d", tc.after, all.Nodes, tc.alive, c.at.UnixMilli())
				}
				if ranked := r.handle(Request{Op: "list", Limit: 1}); (len(ranked.Nodes) == 1) != tc.alive {
					t.Errorf("%v after the stamp: ranked list %+v, want the node listed = %v", tc.after, ranked.Nodes, tc.alive)
				}
			}
		})
	}
}

// TestSnapshotInIDOrder: a compaction writes the nodes in ID order, so two
// compactions of one state write the same bytes, and a restart with no
// removals hands every node the ID it had.
func TestSnapshotInIDOrder(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{TTL: time.Minute, WAL: &WALOptions{Dir: dir, SyncInterval: -1, CompactEvery: 1 << 30}}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := testFleetDigests(300, 4000)
	for lo := 0; lo < len(ds); lo += 64 {
		if resp := r.handle(Request{Op: "register_batch", Digests: ds[lo:min(lo+64, len(ds))]}); !resp.OK {
			t.Fatalf("register_batch: %s", resp.Error)
		}
	}
	compact := func() []byte {
		r.mu.Lock()
		defer r.mu.Unlock()
		if err := r.wal.compact(r.snapshotRecordsLocked()); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, snapFileName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if first, second := compact(), compact(); !bytes.Equal(first, second) {
		t.Fatalf("two compactions of one state wrote different snapshots (%d and %d bytes)", len(first), len(second))
	}
	want := nameIDs(r)
	if err := r.Crash(); err != nil {
		t.Fatal(err)
	}
	r2, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := nameIDs(r2); !maps.Equal(got, want) {
		t.Fatalf("restart from the snapshot renumbered nodes: %d of %d names, e.g. m000 %d -> %d",
			len(got), len(want), want["m000"], got["m000"])
	}
}
