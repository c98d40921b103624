package ishare

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// startServer serves handle on a loopback port until the test ends.
func startServer(t *testing.T, lim Limits, handle func(Request) *Response) string {
	t.Helper()
	s, err := listen("127.0.0.1:0", lim)
	if err != nil {
		t.Fatal(err)
	}
	s.start(handle)
	t.Cleanup(func() {
		s.close()
		s.wg.Wait()
	})
	return s.ln.Addr().String()
}

// countingDialer is the production dial, counted.
type countingDialer struct{ n atomic.Int64 }

func (d *countingDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	d.n.Add(1)
	return DialTCP(addr, timeout)
}

func (d *countingDialer) ReusesConns() bool { return true }

// idleConns returns a copy of the client's idle connections to addr.
func idleConns(c *Client, addr string) []*poolConn {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return slices.Clone(c.pool.idle[addr])
}

// TestPlaceLoopReusesConnections: 100 place ops — Broker.Candidates, then a
// forecast from each shard owning a candidate — over two shards dial each
// shard once. A client that dialed per exchange would dial four times an op.
func TestPlaceLoopReusesConnections(t *testing.T) {
	sr, err := NewShardedRegistryWithOptions(2, RegistryOptions{TTL: time.Minute, Forecast: &ForecastOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	owned := make([][]NodeDigest, 2)
	for _, d := range benchDigests(40) {
		owned[sr.Owner(d.Name)] = append(owned[sr.Owner(d.Name)], d)
	}
	for s, ds := range owned {
		if err := (&Client{}).RegisterBatch(ctx, sr.Addrs()[s], ds); err != nil {
			t.Fatal(err)
		}
	}
	d := &countingDialer{}
	reg := obs.NewRegistry()
	c := &Client{Shards: sr.Addrs(), Dialer: d, Obs: reg}
	b := &Broker{Client: c, DiscoverLimit: 8, Obs: reg}
	for op := 0; op < 100; op++ {
		cands, err := b.Candidates(ctx)
		if err != nil || len(cands) == 0 {
			t.Fatalf("op %d: %d candidates, %v", op, len(cands), err)
		}
		names := make([][]string, 2)
		for _, cd := range cands {
			s := sr.Owner(cd.Node.Name)
			names[s] = append(names[s], cd.Node.Name)
		}
		for s, ns := range names {
			if len(ns) == 0 {
				continue
			}
			if _, err := c.Forecast(ctx, sr.Addrs()[s], ns, time.Hour); err != nil {
				t.Fatalf("op %d: forecast: %v", op, err)
			}
		}
	}
	if n := d.n.Load(); n != 2 {
		t.Errorf("100 place ops over 2 shards dialed %d times, want 2", n)
	}
	if n := c.metrics().dials.Value(); n != 2 {
		t.Errorf("fgcs_client_dials_total = %d, want 2", n)
	}
}

// TestAdmissionIsPerRequest: with one inflight slot, three clients each
// holding an idle pooled connection are all served, one request after
// another, with no shed: an idle connection holds no slot. The queue holds
// four requests: with one in flight and three queued a request waits the
// 100 ms queue wait before it is shed, and with four queued it is shed at
// once, asked to retry after 200 ms.
func TestAdmissionIsPerRequest(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sheds := shedCounter(r)
	d := &countingDialer{}
	clients := []*Client{{Dialer: d}, {Dialer: d}, {Dialer: d}}
	for round := 0; round < 3; round++ {
		for i, c := range clients {
			if _, err := c.ListShard(ctx, r.Addr(), 4); err != nil {
				t.Fatalf("round %d client %d: %v", round, i, err)
			}
		}
	}
	if n := sheds.Value(); n != 0 {
		t.Errorf("%d requests shed", n)
	}
	if n := d.n.Load(); n != 3 {
		t.Errorf("three clients dialed %d times over three rounds, want 3", n)
	}

	r.inflight <- struct{}{}
	for range 3 {
		r.queue <- struct{}{}
	}
	start := time.Now()
	resp, _ := wireExchange(t, r.Addr(), `{"op":"list"}`+"\n")
	if took := time.Since(start); resp.OK || took < 100*time.Millisecond {
		t.Errorf("one in flight, three queued: %+v after %v, want a shed after the 100 ms queue wait", resp, took)
	}
	r.queue <- struct{}{}
	start = time.Now()
	resp, _ = wireExchange(t, r.Addr(), `{"op":"list"}`+"\n")
	if took := time.Since(start); resp.OK || resp.RetryAfterMS != 200 || took >= 100*time.Millisecond {
		t.Errorf("one in flight, four queued: %+v after %v, want a shed at once with retry_after_ms 200", resp, took)
	}
	if n := sheds.Value(); n != 2 {
		t.Errorf("%d requests shed, want 2", n)
	}
}

// TestCloseInterruptsIdleConns: a registry's Close, Crash and Shutdown and
// a node's Close return at once while a client holds an idle pooled
// connection, not after the 10 s the server would wait for its next request.
func TestCloseInterruptsIdleConns(t *testing.T) {
	const bound = 100 * time.Millisecond
	for _, stop := range []struct {
		name string
		do   func(*Registry) error
	}{
		{"Close", (*Registry).Close},
		{"Crash", (*Registry).Crash},
		{"Shutdown", func(r *Registry) error { return r.Shutdown(ctx) }},
	} {
		r, err := NewRegistry("127.0.0.1:0", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (&Client{}).ListShard(ctx, r.Addr(), 4); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := stop.do(r); err != nil {
			t.Errorf("registry %s: %v", stop.name, err)
		}
		if took := time.Since(start); took > bound {
			t.Errorf("registry %s with an idle connection open took %v", stop.name, took)
		}
	}
	n, err := NewNode("127.0.0.1:0", NodeConfig{Name: "idle-peer", HostLoad: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Client{}).Info(ctx, n.Addr()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n.Close()
	if took := time.Since(start); took > bound {
		t.Errorf("node Close with an idle connection open took %v", took)
	}
}

// TestServerClosesIdleConn: a connection idle for the server's IODeadline
// is closed on the server's side, and its goroutine ends.
func TestServerClosesIdleConn(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Limits: Limits{IODeadline: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"list","limit":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("idle connection ended with %v, want EOF", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the idle close, %d before the connection", runtime.NumGoroutine(), base)
		}
	}
}

// TestPooledConnRedialsAfterRestart: a shard crashed and restarted on its
// address between two lists costs the second one exactly one new dial, and
// no retry.
func TestPooledConnRedialsAfterRestart(t *testing.T) {
	sr, err := NewShardedRegistryWithOptions(1, RegistryOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	d := &countingDialer{}
	c := &Client{Dialer: d, Obs: obs.NewRegistry()}
	addr := sr.Addrs()[0]
	if _, err := c.ListShard(ctx, addr, 4); err != nil {
		t.Fatal(err)
	}
	if err := sr.CrashShard(0); err != nil {
		t.Fatal(err)
	}
	if err := sr.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListShard(ctx, addr, 4); err != nil {
		t.Fatalf("list after restart: %v", err)
	}
	if n := d.n.Load(); n != 2 {
		t.Errorf("dials = %d, want 2", n)
	}
	if n := c.metrics().retry("list").Value(); n != 0 {
		t.Errorf("fgcs_client_retries_total = %d, want 0", n)
	}
}

// TestSubmitNotResentOverClosedConn: a submission over a connection the
// node closed while it idled fails as sent, and is not sent again; an
// idempotent request in its place is sent again over a new connection.
func TestSubmitNotResentOverClosedConn(t *testing.T) {
	var submits atomic.Int64
	addr := startServer(t, Limits{IODeadline: 20 * time.Millisecond}, func(req Request) *Response {
		if req.Op == "submit" {
			submits.Add(1)
			return &Response{OK: true, Job: &JobResult{Completed: true}}
		}
		return &Response{OK: true, Info: &NodeStatus{}}
	})
	d := &countingDialer{}
	c := &Client{Dialer: d}
	job := JobSpec{Name: "j", ID: "j-1", CPUSeconds: 1}
	if _, err := c.Submit(ctx, addr, job); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the server closes the idle connection
	if _, err := c.Submit(ctx, addr, job); err == nil {
		t.Fatal("a submission over a connection the server closed succeeded")
	}
	if n, dials := submits.Load(), d.n.Load(); n != 1 || dials != 1 {
		t.Errorf("server saw %d submissions over %d dials, want 1 over 1", n, dials)
	}
	if _, err := c.Submit(ctx, addr, job); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Info(ctx, addr); err != nil {
		t.Fatalf("info over a connection the server closed: %v", err)
	}
	if dials := d.n.Load(); dials != 3 {
		t.Errorf("dials = %d, want 3", dials)
	}
}

// TestPipelinedRequestsAnswered: two requests written in one Write get two
// responses in order, whether the parser or encoding/json reads either;
// after a malformed request the connection ends with an error response,
// and a client is never left without an answer or an error.
func TestPipelinedRequestsAnswered(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	if err := (&Client{}).RegisterBatch(ctx, reg.Addr(), benchDigests(3)); err != nil {
		t.Fatal(err)
	}
	fast, slow := `{"op":"list","limit":1}`, `{"op":"list","limit":2,"extra":1}`
	for _, tc := range []struct {
		in   string
		want []string // each response's error, "" for one listing nodes
	}{
		{fast + "\n" + slow + "\n", []string{"", ""}},
		{slow + "\n" + fast + "\n", []string{"", ""}},
		{slow + slow, []string{"", ""}},
		{fast + fast + `{"op":"nope"}`, []string{"", "", "unknown op nope"}},
		{"not json\n" + fast + "\n", []string{"bad request: invalid character"}},
	} {
		conn, err := net.Dial("tcp", reg.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(tc.in)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		dec := json.NewDecoder(conn)
		for i, want := range tc.want {
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("%q: response %d: %v", tc.in, i, err)
			}
			if want == "" && (!resp.OK || len(resp.Nodes) == 0) || want != "" && !strings.HasPrefix(resp.Error, want) {
				t.Errorf("%q: response %d is %+v, want error %q", tc.in, i, resp, want)
			}
		}
		if tc.want[0] != "" {
			var resp Response
			if err := dec.Decode(&resp); !errors.Is(err, io.EOF) {
				t.Errorf("%q: after the error response got %+v, %v; want EOF", tc.in, resp, err)
			}
		}
		conn.Close()
	}
}

// TestPoolIdleBound: a connection idle past half the client's IODeadline
// is not reused, and a client's next exchange anywhere closes the ones it
// left so idle at addresses it no longer uses.
func TestPoolIdleBound(t *testing.T) {
	a, b := startRegistry(t, time.Minute), startRegistry(t, time.Minute)
	d := &countingDialer{}
	c := &Client{Dialer: d, Limits: Limits{IODeadline: 40 * time.Millisecond}}
	list := func(addr string) {
		t.Helper()
		if _, err := c.ListShard(ctx, addr, 1); err != nil {
			t.Fatal(err)
		}
	}
	list(a.Addr())
	old := idleConns(c, a.Addr())
	if len(old) != 1 {
		t.Fatalf("%d idle connections kept, want 1", len(old))
	}
	list(b.Addr())
	if len(idleConns(c, a.Addr())) != 1 {
		t.Fatal("a connection idle for under half the IODeadline was dropped")
	}
	time.Sleep(30 * time.Millisecond)
	list(b.Addr()) // b's connection idled past 20 ms too: a new dial
	if n := len(idleConns(c, a.Addr())); n != 0 {
		t.Fatalf("%d connections idle past half the IODeadline still pooled", n)
	}
	if _, err := old[0].Write([]byte("{}\n")); err == nil {
		t.Error("the dropped connection was not closed")
	}
	if n := d.n.Load(); n != 3 {
		t.Errorf("dials = %d, want 3: a connection idle past 20 ms was reused", n)
	}
}

// TestPoolForgetsIdleAddresses: connections put back at 1000 addresses and
// left idle past maxIdle are closed at the next put, and their addresses
// leave the map with them, so a client that reached a whole fleet once
// holds, and sweeps on each exchange, only the addresses it still has idle
// connections to.
func TestPoolForgetsIdleAddresses(t *testing.T) {
	var p connPool
	var ends []net.Conn
	const maxIdle = time.Millisecond
	for i := range 1000 {
		a, b := net.Pipe()
		ends = append(ends, b)
		p.put(fmt.Sprintf("10.0.%d.%d:7070", i/256, i%256), &poolConn{Conn: a}, time.Hour)
	}
	if n := len(p.idle); n != 1000 {
		t.Fatalf("%d addresses pooled, want 1000", n)
	}
	time.Sleep(5 * maxIdle)
	p.put("10.1.0.0:7070", nil, maxIdle)
	if n := len(p.idle); n != 0 {
		t.Fatalf("%d addresses still in the pool after every connection idled out", n)
	}
	for _, b := range ends {
		if _, err := b.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("a pooled connection idle past maxIdle was not closed: read gave %v", err)
		}
	}
	if c := p.get("10.0.0.1:7070", maxIdle); c != nil || len(p.idle) != 0 {
		t.Fatalf("get on a forgotten address returned %v and left %d addresses", c, len(p.idle))
	}
}

// TestPoolKeepsConcurrentConns: a client shared by four workers, each
// listing one shard 50 times, dials at most four times and keeps what it
// dialed: an address holds as many idle connections as were in flight to
// it together. One idle connection an address would close all but one and
// dial again for every overlap.
func TestPoolKeepsConcurrentConns(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	d := &countingDialer{}
	c := &Client{Dialer: d}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.ListShard(ctx, reg.Addr(), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	dials, idle := d.n.Load(), len(idleConns(c, reg.Addr()))
	if dials > 4 || int64(idle) != dials {
		t.Errorf("four workers dialed %d times and left %d idle, want at most 4 and all", dials, idle)
	}
}

// TestNodeHeartbeatsReuseConnection: a node registers and heartbeats over
// one connection to its registry, not a dial a heartbeat.
func TestNodeHeartbeatsReuseConnection(t *testing.T) {
	var beats atomic.Int64
	addr := startServer(t, Limits{}, func(req Request) *Response {
		if req.Op == "heartbeat_batch" {
			beats.Add(1)
		}
		return &Response{OK: true}
	})
	d := &countingDialer{}
	startNode(t, NodeConfig{Name: "beating", RegistryAddrs: []string{addr}, HostLoad: 0.05, HeartbeatEvery: 2 * time.Millisecond, Dialer: d})
	for deadline := time.Now().Add(5 * time.Second); beats.Load() < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d heartbeats in 5 s", beats.Load())
		}
	}
	if n := d.n.Load(); n != 1 {
		t.Errorf("registration and %d heartbeats dialed %d times, want 1", beats.Load(), n)
	}
}
