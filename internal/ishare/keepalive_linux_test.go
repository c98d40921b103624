//go:build linux

package ishare

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// soKeepAlive reads SO_KEEPALIVE off a TCP connection's socket.
func soKeepAlive(t *testing.T, c net.Conn) int {
	t.Helper()
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		v, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_KEEPALIVE)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return v
}

// TestOneShotConnsHaveNoKeepalive: a connection idles at most IODeadline
// (10 s by default), under the first keepalive probe (15 s), so neither the
// default dial nor what the registry's and node's listen accepts sets
// keepalive up. A plain net.DialTimeout on the same listener shows the
// probe sees keepalive where Go's defaults turn it on.
func TestOneShotConnsHaveNoKeepalive(t *testing.T) {
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	for _, tc := range []struct {
		name string
		dial func(addr string, timeout time.Duration) (net.Conn, error)
		want int // SO_KEEPALIVE on the dialed end
	}{
		{"default dial", dialerOrDefault(nil).Dial, 0},
		{"net.DialTimeout", func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}, 1},
	} {
		c, err := tc.dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s := <-accepted
		if got := soKeepAlive(t, c); got != tc.want {
			t.Errorf("%s: SO_KEEPALIVE = %d on the dialed end, want %d", tc.name, got, tc.want)
		}
		if got := soKeepAlive(t, s); got != 0 {
			t.Errorf("%s: SO_KEEPALIVE = %d on the accepted end, want 0", tc.name, got)
		}
		c.Close()
		s.Close()
	}
}
