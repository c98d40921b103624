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
	if _, err := roundTrip(context.Background(), nil, "127.0.0.1:1", Request{Op: "list"}, 200*time.Millisecond, 0); err == nil {
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
	if _, err := roundTrip(context.Background(), nil, ln.Addr().String(), Request{Op: "list"}, 300*time.Millisecond, 0); err == nil {
		t.Error("silent server should produce an error")
	}
}

func TestNodeWithUnreachableRegistry(t *testing.T) {
	if _, err := NewNode("127.0.0.1:0", NodeConfig{
		Name:         "orphan",
		RegistryAddr: "127.0.0.1:1",
	}); err == nil {
		t.Error("node should fail to start when registration fails")
	}
}

func TestClientErrorsPropagate(t *testing.T) {
	c := &Client{RegistryAddr: "127.0.0.1:1", Timeout: 200 * time.Millisecond}
	if _, err := c.List(ctx); err == nil {
		t.Error("list against dead registry succeeded")
	}
	if _, err := c.Info(ctx, "127.0.0.1:1"); err == nil {
		t.Error("info against dead node succeeded")
	}
	if _, err := c.Submit(ctx, "127.0.0.1:1", JobSpec{Name: "j", CPUSeconds: 1}); err == nil {
		t.Error("submit against dead node succeeded")
	}
	if err := c.SetHostLoad(ctx, "127.0.0.1:1", 0.5, 0); err == nil {
		t.Error("sethost against dead node succeeded")
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
	bad2 := NodeConfig{Name: "bad2"}
	bad2.Detector.TransientWindow = -time.Second
	if _, err := NewNode("127.0.0.1:0", bad2); err == nil {
		t.Error("bad detector config accepted")
	}
}
