package ishare

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"
)

func TestServeConnRejectsMalformedJSON(t *testing.T) {
	reg := startRegistry(t, time.Second)
	conn, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatalf("no response to malformed request: %v", err)
	}
	if resp.OK {
		t.Error("malformed request accepted")
	}
}

func TestRoundTripFailures(t *testing.T) {
	// Nothing listening.
	if _, err := roundTrip(context.Background(), nil, new(connPool), "127.0.0.1:1", Request{Op: "list"}, 200*time.Millisecond, Limits{}, true); err == nil {
		t.Error("dial to dead address succeeded")
	}
	// Server that accepts then closes without responding.
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
			c.Close()
		}
	}()
	if _, err := roundTrip(context.Background(), nil, new(connPool), ln.Addr().String(), Request{Op: "list"}, 300*time.Millisecond, Limits{}, true); err == nil {
		t.Error("silent server should produce an error")
	}
}

func TestNodeWithUnreachableRegistry(t *testing.T) {
	if _, err := NewNode("127.0.0.1:0", NodeConfig{
		Name:          "orphan",
		RegistryAddrs: []string{"127.0.0.1:1"},
	}); err == nil {
		t.Error("node should fail to start when registration fails")
	}
}

func TestClientErrorsPropagate(t *testing.T) {
	c := &Client{Shards: []string{"127.0.0.1:1"}, Timeout: 200 * time.Millisecond}
	if _, err := c.List(ctx); err == nil {
		t.Error("list against dead registry succeeded")
	}
	if _, err := c.Info(ctx, "127.0.0.1:1"); err == nil {
		t.Error("info against dead node succeeded")
	}
	if _, err := c.Submit(ctx, "127.0.0.1:1", JobSpec{Name: "j", CPUSeconds: 1}); err == nil {
		t.Error("submit against dead node succeeded")
	}
	b := &Broker{Client: c}
	if _, err := b.Candidates(ctx); err == nil {
		t.Error("broker against dead registry succeeded")
	}
}

func TestRegistryAndNodeDoubleClose(t *testing.T) {
	reg := startRegistry(t, time.Second)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Errorf("second close errored: %v", err)
	}
	node := startNode(t, NodeConfig{Name: "dc"})
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Errorf("second node close errored: %v", err)
	}
}

func TestNodeConfigErrors(t *testing.T) {
	bad := NodeConfig{Name: "bad"}
	bad.Machine.RAM = -1
	if _, err := NewNode("127.0.0.1:0", bad); err == nil {
		t.Error("bad machine config accepted")
	}
}

// TestNodeRejectsOutOfRangeSizes: sizes in MiB from the wire are checked
// before they are scaled to bytes. 0 keeps its "use the default" meaning;
// a negative size, or one above the machine's RAM (1536 MiB here), is
// refused by name and value instead of wrapping or silently defaulting.
func TestNodeRejectsOutOfRangeSizes(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "sizes"})
	submit := func(rssMB int64) Request {
		return Request{Op: "submit", Job: &JobSpec{Name: "j", CPUSeconds: 1, RSSMB: rssMB}}
	}
	cases := []struct {
		name string
		req  Request
		want string // "" = accepted
	}{
		{"rss default", submit(0), ""},
		{"rss all of RAM", submit(1536), ""},
		{"rss negative", submit(-1), "rss_mb -1 outside [0, 1536]"},
		{"rss above RAM", submit(1537), "rss_mb 1537 outside [0, 1536]"},
		{"rss wraps to zero", submit(1 << 44), "rss_mb 17592186044416 outside [0, 1536]"},
		{"rss 4 EiB", submit(1 << 42), "rss_mb 4398046511104 outside [0, 1536]"},
		{"no sethost op", Request{Op: "sethost"}, "unknown op sethost"},
	}
	for _, tc := range cases {
		resp := node.handle(tc.req)
		if tc.want == "" {
			if !resp.OK {
				t.Errorf("%s: rejected: %s", tc.name, resp.Error)
			}
			continue
		}
		if resp.OK || resp.Error != tc.want {
			t.Errorf("%s: ok=%v error=%q, want error %q", tc.name, resp.OK, resp.Error, tc.want)
		}
	}
}
