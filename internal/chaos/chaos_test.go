package chaos

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ishare"
	"repro/internal/obs"
)

// Counters reports how many faults of each kind a probe saw injected.
type Counters struct {
	// Dials counts every dial that went through the probe.
	Dials int64
	// Refused counts dials and exchanges failed with ErrRefused.
	Refused int64
	// Delayed counts injected dial or read delays.
	Delayed int64
	// Dropped counts connections closed mid-stream.
	Dropped int64
	// Corrupted counts responses with a flipped byte.
	Corrupted int64
}

// probe is an Injector, used as the Dialer, that counts the faults injected
// into the dials and exchanges made through it. It reads each one off the
// error the injector returns or the fault connection's plan for the
// exchange, so the injector itself keeps no counters.
type probe struct {
	*Injector
	dials, refused, delayed, dropped, corrupted atomic.Int64
}

func newProbe(seed int64) *probe { return &probe{Injector: New(seed)} }

// Counters returns a snapshot of the injected-fault counts.
func (p *probe) Counters() Counters {
	return Counters{
		Dials:     p.dials.Load(),
		Refused:   p.refused.Load(),
		Delayed:   p.delayed.Load(),
		Dropped:   p.dropped.Load(),
		Corrupted: p.corrupted.Load(),
	}
}

func (p *probe) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	p.dials.Add(1)
	conn, err := p.Injector.Dial(addr, timeout)
	switch fc, ok := conn.(*faultConn); {
	case errors.Is(err, ErrRefused):
		p.refused.Add(1)
	case err != nil && strings.HasPrefix(err.Error(), "chaos: dial to"):
		p.delayed.Add(1) // a delay past the timeout
	case ok:
		if fc.plan.dialDelay > 0 {
			p.delayed.Add(1)
		}
		return &probeConn{faultConn: fc, p: p}, nil
	}
	return conn, err
}

// probeConn counts the faults of each exchange over one fault connection.
type probeConn struct {
	*faultConn
	p *probe
}

func (c *probeConn) Write(b []byte) (int, error) {
	next := c.reading // a write after a read plans the next exchange
	n, err := c.faultConn.Write(b)
	switch {
	case next && errors.Is(err, ErrRefused):
		c.p.refused.Add(1)
	case next && c.plan.dialDelay > 0:
		c.p.delayed.Add(1)
	}
	return n, err
}

func (c *probeConn) Read(b []byte) (int, error) {
	delayed, corrupt := c.plan.readDelay > 0, c.plan.corrupt
	n, err := c.faultConn.Read(b)
	if delayed {
		c.p.delayed.Add(1)
	}
	if corrupt && !c.plan.corrupt {
		c.p.corrupted.Add(1)
	}
	if err != nil && strings.Contains(err.Error(), "dropped mid-stream") {
		c.p.dropped.Add(1)
	}
	return n, err
}

var ctx = context.Background()

// The injector must satisfy the ishare dial seam.
var _ ishare.Dialer = (*Injector)(nil)

func startRegistry(t *testing.T, ttl time.Duration) *ishare.Registry {
	t.Helper()
	r, err := ishare.NewRegistry("127.0.0.1:0", ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func startNode(t *testing.T, cfg ishare.NodeConfig) *ishare.Node {
	t.Helper()
	n, err := ishare.NewNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func fastClient(registryAddr string, d ishare.Dialer) *ishare.Client {
	return &ishare.Client{
		Shards:  []string{registryAddr},
		Timeout: time.Second,
		Dialer:  d,
		Retry: ishare.RetryPolicy{
			MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1,
		},
	}
}

func TestPartitionAndHeal(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	startNode(t, ishare.NodeConfig{Name: "n1", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})

	inj := newProbe(1)
	c := fastClient(reg.Addr(), inj)
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list before partition: %v", err)
	}

	inj.Partition(reg.Addr())
	if _, err := c.List(ctx); err == nil {
		t.Fatal("list through a partition succeeded")
	}
	if n := inj.Counters().Refused; n < 3 {
		t.Errorf("refused = %d, want every retry refused", n)
	}

	inj.Heal(reg.Addr())
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list after heal: %v", err)
	}
}

func TestClientRetriesThroughTransientRefusals(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	// The first two dials are refused; the retry budget (3 attempts)
	// must absorb them.
	inj.Add(Fault{Name: "flaky", Addr: reg.Addr(), Refuse: true, Times: 2})
	c := fastClient(reg.Addr(), inj)
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list should survive 2 refusals under a 3-attempt budget: %v", err)
	}
	if n := inj.Counters().Refused; n != 2 {
		t.Errorf("refused = %d, want exactly 2", n)
	}
}

func TestCorruptedResponseIsRejectedThenRetried(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "corrupt", Addr: reg.Addr(), CorruptProb: 1, Times: 1})
	c := fastClient(reg.Addr(), inj)
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list should survive one corrupted response: %v", err)
	}
	if n := inj.Counters().Corrupted; n != 1 {
		t.Errorf("corrupted = %d, want 1", n)
	}
}

func TestDialLatencyInjection(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "slow", Addr: reg.Addr(), DialLatency: 30 * time.Millisecond, Times: 1})
	c := fastClient(reg.Addr(), inj)
	start := time.Now()
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("list took %v, want >= injected 30ms", elapsed)
	}
	if n := inj.Counters().Delayed; n != 1 {
		t.Errorf("delayed = %d, want 1", n)
	}
}

func TestDialLatencyBeyondTimeoutFails(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "stuck", Addr: reg.Addr(), DialLatency: 200 * time.Millisecond})
	c := fastClient(reg.Addr(), inj)
	c.Timeout = 50 * time.Millisecond
	c.Retry.MaxAttempts = 1
	if _, err := c.List(ctx); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("latency above the dial timeout should time out, got %v", err)
	}
}

func TestMidStreamDropTriggersDedupSafeRetry(t *testing.T) {
	// The response to the first submission is dropped mid-stream after
	// the node already ran the job. The broker's same-node retry must
	// recover the cached result instead of running the job again.
	reg := startRegistry(t, time.Minute)
	node := startNode(t, ishare.NodeConfig{Name: "n1", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})

	inj := newProbe(1)
	// Drop the response to the first connection to the node — the
	// submission itself: discovery never dials the node.
	inj.Add(Fault{Name: "drop-submit", Addr: node.Addr(), DropAfterBytes: 8, Times: 1})
	b := &ishare.Broker{Client: fastClient(reg.Addr(), inj)}

	res, onNode, err := b.SubmitBest(ctx, ishare.JobSpec{Name: "dropped", ID: "drop-1", CPUSeconds: 90, RSSMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job did not complete: %+v", res)
	}
	if onNode.Name != "n1" {
		t.Fatalf("completed on %s, want n1", onNode.Name)
	}
	if !res.Deduped {
		t.Errorf("recovered result should be the node's cached one: %+v", res)
	}
	if got := node.ExecutionCounts()["drop-1"]; got != 1 {
		t.Errorf("job executed %d times, want exactly once", got)
	}
	if n := inj.Counters().Dropped; n != 1 {
		t.Errorf("dropped = %d, want 1", n)
	}
	if m := b.Metrics(); m.SameNodeRetries == 0 {
		t.Errorf("metrics = %+v, want a same-node retry", m)
	}
}

func TestFaultToggleByName(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "gate", Addr: reg.Addr(), Refuse: true})
	inj.SetEnabled("gate", false)
	c := fastClient(reg.Addr(), inj)
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("disabled fault still firing: %v", err)
	}
	inj.SetEnabled("gate", true)
	if _, err := c.List(ctx); err == nil {
		t.Fatal("re-enabled fault not firing")
	}
}

func TestSeededRefusalSequenceIsReproducible(t *testing.T) {
	run := func(seed int64) []bool {
		inj := newProbe(seed)
		inj.Add(Fault{Name: "p", RefuseProb: 0.5})
		out := make([]bool, 32)
		for i := range out {
			out[i] = inj.plan("x").refuse
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 32-call sequences")
	}
}

// A client keeps its connection to the registry open between exchanges, so
// faults are planned per exchange; these pin that over one pooled
// connection.

func TestPartitionRefusesPooledConn(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	c := fastClient(reg.Addr(), inj)
	c.Retry.MaxAttempts = 1
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	inj.Partition(reg.Addr())
	if _, err := c.List(ctx); !errors.Is(err, ErrRefused) {
		t.Fatalf("list over a partitioned pooled connection: %v, want refused", err)
	}
	// The pooled exchange is refused, and not sent again past the retry
	// policy.
	if got := inj.Counters(); got.Refused != 1 || got.Dials != 1 {
		t.Errorf("counters %+v, want 1 refused over 1 dial", got)
	}
}

func TestRefusalOnPooledConnIsOneRetry(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	c := fastClient(reg.Addr(), inj)
	c.Obs = obs.NewRegistry()
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	inj.Add(Fault{Name: "once", Addr: reg.Addr(), Refuse: true, Times: 1})
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list after one refusal: %v", err)
	}
	retries := c.Obs.Counter("fgcs_client_retries_total", "", obs.L("op", "list")).Value()
	if got := inj.Counters(); retries != 1 || got.Refused != 1 || got.Dials != 2 {
		t.Errorf("%d retries, counters %+v; want 1 retry, 1 refused, 2 dials", retries, got)
	}
}

func TestSkipCountsExchangesOverOneConn(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "lag", Addr: reg.Addr(), ReadLatency: 30 * time.Millisecond, Skip: 1, Times: 1})
	c := fastClient(reg.Addr(), inj)
	for i, wantDelayed := range []int64{0, 1, 1} {
		start := time.Now()
		if _, err := c.List(ctx); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); (took >= 30*time.Millisecond) != (i == 1) {
			t.Errorf("exchange %d took %v", i, took)
		}
		if got := inj.Counters(); got.Delayed != wantDelayed || got.Dials != 1 {
			t.Errorf("after exchange %d: %+v, want %d delayed over 1 dial", i, got, wantDelayed)
		}
	}
}

func TestDropAfterBytesDropsPlannedExchange(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	inj := newProbe(1)
	inj.Add(Fault{Name: "drop", Addr: reg.Addr(), DropAfterBytes: 8, Skip: 1, Times: 1})
	c := fastClient(reg.Addr(), inj)
	c.Retry.MaxAttempts = 1
	for i, wantErr := range []bool{false, true, false} {
		if _, err := c.List(ctx); (err != nil) != wantErr {
			t.Errorf("exchange %d: %v", i, err)
		}
	}
	if got := inj.Counters(); got.Dropped != 1 || got.Dials != 2 {
		t.Errorf("counters %+v, want 1 drop, and a dial after it", got)
	}
}
