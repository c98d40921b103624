package ishare

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fastClient keeps failure-path tests quick: short attempt timeouts and a
// tight retry budget (refused dials fail instantly anyway).
func fastClient(registryAddr string) *Client {
	return &Client{
		Shards:  []string{registryAddr},
		Timeout: 500 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1},
	}
}

// TestSubmitBestFailsOverFromDeadListedNode: a node that dies stays listed
// until its registry TTL runs out, and discovery does not dial it. The
// submission to it fails, and SubmitBest fails over to the next candidate.
func TestSubmitBestFailsOverFromDeadListedNode(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	// Both report S1 at load 0 until observed, so the name ranks a-dead first.
	dead, err := NewNode("127.0.0.1:0", NodeConfig{Name: "a-dead", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	live := startNode(t, NodeConfig{Name: "b-live", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})

	b := &Broker{Client: fastClient(reg.Addr())}
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].Node.Name != "a-dead" {
		t.Fatalf("candidates = %+v, want a-dead listed first", cands)
	}
	res, onNode, err := b.SubmitBest(ctx, JobSpec{Name: "failover", ID: "fo-1", CPUSeconds: 60, RSSMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || onNode.Name != "b-live" {
		t.Fatalf("res=%+v node=%+v, want completed on b-live", res, onNode)
	}
	if got := live.ExecutionCounts()["fo-1"]; got != 1 {
		t.Errorf("job executed %d times on b-live, want exactly once", got)
	}
	if m := b.Metrics(); m.Failovers < 1 {
		t.Errorf("metrics = %+v, want Failovers >= 1", m)
	}
}

func TestCandidatesExcludesFailureStateNodes(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	idle := startNode(t, NodeConfig{Name: "idle", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	_ = idle
	hot := startNode(t, NodeConfig{Name: "hot", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.95})
	c := &Client{}
	// Pump the hot node's detector past the transient window so it
	// latches S3.
	var latched bool
	for i := 0; i < 25; i++ {
		st, err := c.Info(ctx, hot.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(st.State, "S3") {
			latched = true
			break
		}
	}
	if !latched {
		t.Fatal("hot node never latched S3")
	}
	waitListed(t, reg, idle, hot)
	b := &Broker{Client: fastClient(reg.Addr())}
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range cands {
		if cand.Node.Name == "hot" {
			t.Fatalf("S3 node offered as candidate: %+v", cand)
		}
	}
	if len(cands) == 0 {
		t.Fatal("idle node should remain a candidate")
	}
}

func TestRankStateEdgeCases(t *testing.T) {
	tests := []struct {
		state string
		want  int
	}{
		{"", -1},
		{"s1(lowercase)", -1},
		{"S2", 1},
		{"banana", -1},
		{"S3", -1},
		{"S4", -1},
		{"S5", -1},
	}
	for _, tt := range tests {
		if got := rankState(tt.state); got != tt.want {
			t.Errorf("rankState(%q) = %d, want %d", tt.state, got, tt.want)
		}
	}
}

func TestBrokerServesStaleCacheDuringRegistryOutage(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	node := startNode(t, NodeConfig{Name: "survivor", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	_ = node

	b := &Broker{Client: fastClient(reg.Addr()), CacheTTL: time.Minute}
	if _, err := b.Candidates(ctx); err != nil {
		t.Fatal(err)
	}

	// The registry dies. Placement must degrade to the cached node list.
	reg.Close()
	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatalf("candidates during registry outage: %v", err)
	}
	if len(cands) != 1 || !cands[0].Stale {
		t.Fatalf("candidates = %+v, want one stale entry", cands)
	}
	if m := b.Metrics(); m.StaleServes != 1 {
		t.Errorf("metrics = %+v, want StaleServes == 1", m)
	}

	// And a submission through the degraded broker still completes.
	res, onNode, err := b.SubmitBest(ctx, JobSpec{Name: "degraded", CPUSeconds: 60, RSSMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || onNode.Name != "survivor" {
		t.Fatalf("degraded submit: res=%+v node=%+v", res, onNode)
	}
}

func TestBrokerStaleCacheRespectsBound(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	node := startNode(t, NodeConfig{Name: "n", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	_ = node
	b := &Broker{Client: fastClient(reg.Addr()), CacheTTL: time.Millisecond}
	if _, err := b.Candidates(ctx); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	time.Sleep(10 * time.Millisecond)
	if _, err := b.Candidates(ctx); err == nil {
		t.Error("candidates beyond the staleness bound should fail")
	}
	if m := b.Metrics(); m.RegistryErrors == 0 {
		t.Errorf("metrics = %+v, want RegistryErrors > 0", m)
	}
}

func TestSubmitDedupByID(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "dedup", HostLoad: 0.05})
	c := &Client{}
	spec := JobSpec{Name: "once", ID: "job-42", CPUSeconds: 60, RSSMB: 32}
	first, err := c.Submit(ctx, node.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Completed || first.Deduped {
		t.Fatalf("first run: %+v", first)
	}
	second, err := c.Submit(ctx, node.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || !second.Completed {
		t.Fatalf("resubmission of a completed ID should dedup: %+v", second)
	}
	if got := node.ExecutionCounts()["job-42"]; got != 1 {
		t.Errorf("job executed %d times, want exactly 1", got)
	}
}

func TestSubmitResumeFromCheckpoint(t *testing.T) {
	hot := startNode(t, NodeConfig{Name: "hot", HostLoad: 0.9})
	idle := startNode(t, NodeConfig{Name: "idle", HostLoad: 0.05})
	c := &Client{}

	const total = 600.0
	killed, err := c.Submit(ctx, hot.Addr(), JobSpec{Name: "victim", ID: "v1", CPUSeconds: total, RSSMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if killed.Completed {
		t.Fatalf("job should be killed under 0.9 host load: %+v", killed)
	}
	ckpt := killed.GuestCPUSeconds
	if ckpt < 0 || ckpt >= total {
		t.Fatalf("checkpoint %v outside [0, %v)", ckpt, total)
	}

	resumed, err := c.Submit(ctx, idle.Addr(), JobSpec{
		Name: "victim", ID: "v1", CPUSeconds: total, RSSMB: 32, ResumeCPUSeconds: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Completed {
		t.Fatalf("resumed job should complete on the idle node: %+v", resumed)
	}
	if resumed.ResumedFrom != ckpt {
		t.Errorf("ResumedFrom = %v, want %v", resumed.ResumedFrom, ckpt)
	}
	// Cumulative progress: the resume offset plus the remaining work, not
	// a from-zero rerun.
	if resumed.GuestCPUSeconds < total || resumed.GuestCPUSeconds > total+15 {
		t.Errorf("cumulative guest CPU = %v, want ~%v", resumed.GuestCPUSeconds, total)
	}
}

func TestSubmitRejectsBadResumeOffset(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "r", HostLoad: 0.05})
	c := &Client{}
	if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "j", CPUSeconds: 10, ResumeCPUSeconds: 10}); err == nil {
		t.Error("resume offset == total accepted")
	}
	if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "j", CPUSeconds: 10, ResumeCPUSeconds: -1}); err == nil {
		t.Error("negative resume offset accepted")
	}
}

func TestNodeCrashAtVirtualTime(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "doomed", HostLoad: 0.05, CrashAtVirtual: 30 * time.Second})
	c := &Client{Timeout: time.Second}
	// The job needs far more virtual time than the crash point: the
	// service dies mid-job and the connection drops without a response.
	if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "lost", ID: "lost-1", CPUSeconds: 600, RSSMB: 32}); err == nil {
		t.Fatal("submission across a node crash should fail")
	}
	if got := node.ExecutionCounts()["lost-1"]; got != 0 {
		t.Errorf("crashed job recorded %d completions, want 0", got)
	}
	// The service is gone for good: further dials must fail.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Info(ctx, node.Addr()); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed node still answering info")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHeartbeatReRegistersAfterRegistryForgets(t *testing.T) {
	reg := startRegistry(t, 300*time.Millisecond)
	node := startNode(t, NodeConfig{Name: "phoenix", RegistryAddrs: []string{reg.Addr()}, HeartbeatEvery: 20 * time.Millisecond})
	_ = node
	c := &Client{Shards: []string{reg.Addr()}}

	// The registry loses the node (restart, operator error): heartbeats
	// name the node in missing and the node must re-register.
	reg.handle(Request{Op: "unregister", Names: []string{"phoenix"}})
	deadline := time.Now().Add(3 * time.Second)
	for {
		nodes, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) == 1 && nodes[0].Name == "phoenix" && nodes[0].Alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never re-registered: %+v", nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHeartbeatRefusalDoesNotReRegister: a refusal that is not a shed — a
// WAL append that failed — is a failed heartbeat, backed off like an
// unreachable registry, and the node re-registers only when a reply's
// Missing names it.
func TestHeartbeatRefusalDoesNotReRegister(t *testing.T) {
	const refusals = 3
	var mu sync.Mutex
	registers, heartbeats, registersAtMissing := 0, 0, 0
	addr := startServer(t, Limits{}, func(req Request) *Response {
		mu.Lock()
		defer mu.Unlock()
		switch req.Op {
		case "register", "register_batch":
			registers++
			return &Response{OK: true}
		case "heartbeat", "heartbeat_batch":
			heartbeats++
			switch {
			case heartbeats <= refusals:
				return errWALAppend
			case heartbeats == refusals+1:
				registersAtMissing = registers
				return &Response{OK: true, Missing: []string{"stubbed"}}
			}
			return &Response{OK: true}
		}
		return &Response{OK: false, Error: "unknown op " + req.Op}
	})
	node := startNode(t, NodeConfig{Name: "stubbed", RegistryAddrs: []string{addr},
		HeartbeatEvery: 5 * time.Millisecond, Metrics: obs.NewRegistry()})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := heartbeats
		mu.Unlock()
		if n >= refusals+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d heartbeats arrived", n)
		}
	}
	node.Close()
	mu.Lock()
	defer mu.Unlock()
	if registersAtMissing != 1 {
		t.Errorf("%d registers before the Missing reply, want the first only", registersAtMissing)
	}
	if registers != 2 {
		t.Errorf("%d registers in all, want the first and one after the Missing reply", registers)
	}
	if got := node.met.heartbeatFailures.Value(); got != refusals {
		t.Errorf("heartbeat_failures = %d, want %d", got, refusals)
	}
	if got := node.met.reregisters.Value(); got != 1 {
		t.Errorf("reregisters = %d, want 1", got)
	}
}

func TestServeConnRejectsOversizedRequest(t *testing.T) {
	reg, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Second, Limits: Limits{MaxMessageBytes: 128}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	conn, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := Request{Op: "register_batch", Digests: []NodeDigest{{Name: strings.Repeat("x", 4096), Addr: "127.0.0.1:1"}}}
	if err := json.NewEncoder(conn).Encode(big); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no response to oversized request: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Errorf("oversized request not rejected: %+v", resp)
	}
}

func TestServeConnDisconnectsSlowPeer(t *testing.T) {
	// A peer that connects and never sends a request must not pin the
	// handler beyond the configured I/O deadline.
	reg, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Second, Limits: Limits{IODeadline: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	conn, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("silent connection got a response")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("handler held a silent connection for %v", elapsed)
	}
}

func TestClientBoundsResponseSize(t *testing.T) {
	// A malicious "registry" replying with an enormous (but well-formed)
	// JSON document must not make the client buffer it all.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				_, _ = c.Read(buf)
				_, _ = c.Write([]byte(`{"ok":true,"error":"` + strings.Repeat("a", 1<<16) + `"}`))
			}(c)
		}
	}()
	c := &Client{
		Shards:  []string{ln.Addr().String()},
		Timeout: time.Second,
		Retry:   RetryPolicy{MaxAttempts: 1},
		Limits:  Limits{MaxMessageBytes: 1024},
	}
	_, err = c.List(ctx)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized response err = %v, want size-bound error", err)
	}
}

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, MaxAttempts: 10}.withDefaults()
	prev := time.Duration(0)
	for attempt := 1; attempt <= 6; attempt++ {
		d := backoffDelay(p, attempt, nil)
		if d < prev {
			t.Errorf("attempt %d delay %v shrank below %v", attempt, d, prev)
		}
		if d > p.MaxDelay+p.MaxDelay/10 {
			t.Errorf("attempt %d delay %v above cap %v", attempt, d, p.MaxDelay)
		}
		prev = d
	}
	// The default policy's second retry waits 60 ms, jittered by ±20 %.
	jr := newJitterRand(7)
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d := backoffDelay(RetryPolicy{}.withDefaults(), 2, jr)
		if d < 48*time.Millisecond || d > 72*time.Millisecond {
			t.Errorf("jittered delay %v outside ±20%% of 60ms", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Error("jitter produced identical delays")
	}
}
