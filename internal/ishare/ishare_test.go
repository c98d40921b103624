package ishare

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simos"
)

var ctx = context.Background()

func startRegistry(t *testing.T, ttl time.Duration) *Registry {
	t.Helper()
	r, err := NewRegistry("127.0.0.1:0", ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func startNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	n, err := NewNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// setHost replaces a running node's synthetic host workload between two
// exchanges (memMB 0 keeps the default 300 MiB).
func setHost(n *Node, load float64, memMB int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setHostLocked(load, memMB*simos.MB)
}

func TestRegistryLifecycle(t *testing.T) {
	reg := startRegistry(t, 200*time.Millisecond)
	c := &Client{Shards: []string{reg.Addr()}}

	node := startNode(t, NodeConfig{Name: "alpha", RegistryAddrs: []string{reg.Addr()}})
	_ = node

	nodes, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Name != "alpha" || !nodes[0].Alive {
		t.Fatalf("nodes = %+v", nodes)
	}
}

func TestRegistryDetectsURR(t *testing.T) {
	reg := startRegistry(t, 150*time.Millisecond)
	c := &Client{Shards: []string{reg.Addr()}}
	node := startNode(t, NodeConfig{Name: "beta", RegistryAddrs: []string{reg.Addr()}, HeartbeatEvery: 30 * time.Millisecond})

	// Alive while heartbeating.
	nodes, err := c.List(ctx)
	if err != nil || len(nodes) != 1 || !nodes[0].Alive {
		t.Fatalf("expected alive node, got %+v, %v", nodes, err)
	}

	// The machine is revoked: the FGCS service terminates. The registry
	// must eventually report it dead — the paper's URR observable.
	node.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		nodes, err = c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) == 1 && !nodes[0].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never went dead: %+v", nodes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRegistryRejectsBadRequests(t *testing.T) {
	reg := startRegistry(t, time.Second)
	reg.Instrument(obs.NewRegistry(), nil)
	if resp := reg.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Addr: "10.0.0.1:70"}}}); resp.OK {
		t.Error("register without name accepted")
	}
	ops := []string{"register", "heartbeat", "shardmap", "dance"}
	for _, op := range ops {
		if resp := reg.handle(Request{Op: op}); resp.OK || resp.Error != "unknown op "+op {
			t.Errorf("%s: %+v, want unknown op", op, resp)
		}
	}
	if n := reg.met.requests["unknown"].Value(); n != uint64(len(ops)) {
		t.Errorf("%d requests counted as op unknown, want %d", n, len(ops))
	}
	if resp := reg.handle(Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "ghost"}}}); !resp.OK || !slices.Equal(resp.Missing, []string{"ghost"}) {
		t.Errorf("heartbeat for unknown node: %+v, want it named in missing", resp)
	}
	if resp := reg.handle(Request{Op: "unregister", Names: []string{"ghost"}}); !resp.OK {
		t.Error("unregister should be idempotent")
	}
}

func TestNodeInfoReportsStates(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "gamma", HostLoad: 0.05})
	c := &Client{}
	st, err := c.Info(ctx, node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.State, "S1") {
		t.Errorf("light host load should be S1, got %s", st.State)
	}
	// Crank the host load into S2 territory.
	setHost(node, 0.45, 0)
	var sawS2 bool
	for i := 0; i < 20; i++ {
		st, err = c.Info(ctx, node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(st.State, "S2") {
			sawS2 = true
			break
		}
	}
	if !sawS2 {
		t.Errorf("host load 0.45 should reach S2, last state %s", st.State)
	}
}

func TestSubmitCompletesOnIdleNode(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "idle", HostLoad: 0.05})
	c := &Client{}
	res, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "job", CPUSeconds: 120, RSSMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Outcome != "completed" {
		t.Fatalf("job did not complete: %+v", res)
	}
	if res.GuestCPUSeconds < 119 || res.GuestCPUSeconds > 125 {
		t.Errorf("guest CPU = %v, want ~120", res.GuestCPUSeconds)
	}
	// On a nearly idle machine the job should not take much longer than
	// its pure compute time.
	if res.WallSeconds > 160 {
		t.Errorf("wall = %v s for 120 s of work on an idle node", res.WallSeconds)
	}
}

func TestSubmitKilledUnderSustainedLoad(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "busy", HostLoad: 0.9})
	c := &Client{}
	res, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "victim", CPUSeconds: 600, RSSMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatalf("job should have been killed under 0.9 host load: %+v", res)
	}
	if res.Outcome != "killed" {
		t.Fatalf("outcome = %s, want killed", res.Outcome)
	}
	if !strings.HasPrefix(res.FinalState, "S3") {
		t.Errorf("final state = %s, want S3", res.FinalState)
	}
}

func TestSubmitKilledByMemoryPressure(t *testing.T) {
	cfg := NodeConfig{Name: "small", HostLoad: 0.05}
	cfg.Machine = simos.MachineConfig{Name: "small", RAM: 512 * simos.MB, KernelMem: 100 * simos.MB, Seed: 3}
	node := startNode(t, cfg)
	c := &Client{}
	// Host grows to 350 MB: free = 512-100-350 = 62 MB < guest demand.
	setHost(node, 0.05, 350)
	res, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "bigmem", CPUSeconds: 300, RSSMB: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Outcome != "killed" {
		t.Fatalf("memory-starved job should be killed: %+v", res)
	}
	if !strings.HasPrefix(res.FinalState, "S4") {
		t.Errorf("final state = %s, want S4", res.FinalState)
	}
}

func TestSubmitValidation(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "v"})
	c := &Client{}
	if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "zero", CPUSeconds: 0}); err == nil {
		t.Error("zero-work job accepted")
	}
	if resp := node.handle(Request{Op: "submit"}); resp.OK {
		t.Error("submit without job accepted")
	}
	for _, op := range []string{"nope", "gossip"} {
		if resp := node.handle(Request{Op: op}); resp.OK || resp.Error != "unknown op "+op {
			t.Errorf("%s: %+v, want unknown op", op, resp)
		}
	}
}

func TestRegistryTTLValidation(t *testing.T) {
	if _, err := NewRegistry("127.0.0.1:0", 0); err == nil {
		t.Error("zero TTL accepted")
	}
}
