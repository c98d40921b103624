package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// netTotals pools what every tracing dialer of one workload saw.
type netTotals struct {
	open, highWater atomic.Int64

	mu     sync.Mutex
	dials  int64
	dialUS []float64
	ops    map[string]*opNet
}

// opNet is the wire's view of one protocol op: exchange times (first write
// to last byte read, so server plus wire), the rest of the connection's
// life outside the dial (request encode before the first write, response
// decode after the last read: the client's own work), and exact byte counts.
type opNet struct {
	exchangeUS []float64
	selfUS     []float64
	conns      int64
	bytes      int64 // request + response
}

func newNetTotals() *netTotals { return &netTotals{ops: make(map[string]*opNet)} }

// spyDialer is the tracing ishare.Dialer: the default TCP dial, timed, with
// the connection wrapped to time the exchange and count bytes. Each load
// generator goroutine owns one, so a connection's parent span is whatever
// op that goroutine is in. While off it is the plain dial.
type spyDialer struct {
	rec    *spanRecorder
	tot    *netTotals
	on     atomic.Bool
	parent atomic.Int32

	mu    sync.Mutex
	spent time.Duration   // dial + exchange time since take()
	kids  []time.Duration // dial start to close, per connection since take()
}

func (d *spyDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if !d.on.Load() {
		return net.DialTimeout("tcp", addr, timeout)
	}
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	end := time.Now()
	parent := d.parent.Load()
	d.rec.add(parent, spDial, start, end)
	d.tot.mu.Lock()
	d.tot.dials++
	d.tot.dialUS = append(d.tot.dialUS, micros(end.Sub(start)))
	d.tot.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if n := d.tot.open.Add(1); n > d.tot.highWater.Load() {
		d.tot.highWater.Store(n) // racy max is fine: generators are few and the mark only grows
	}
	return &spyConn{Conn: conn, d: d, parent: parent, dialStart: start, dialEnd: end}, nil
}

// tracing reports whether the dialer is recording; a nil dialer never is.
func (d *spyDialer) tracing() bool { return d != nil && d.on.Load() }

// spies are the generators' tracing dialers; an untraced run's are nil.
type spies []*spyDialer

// set switches recording on every dialer, between sub-windows.
func (s spies) set(on bool) {
	for _, d := range s {
		if d != nil {
			d.on.Store(on)
		}
	}
}

// take returns and clears what this dialer's connections spent since the
// last call: total dial + exchange time, and each connection's lifetime.
func (d *spyDialer) take() (spent time.Duration, kids []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	spent, kids = d.spent, d.kids
	d.spent, d.kids = 0, nil
	return spent, kids
}

type spyConn struct {
	net.Conn
	d                  *spyDialer
	parent             int32
	dialStart, dialEnd time.Time
	firstWrite         time.Time
	lastRead           time.Time
	op                 string
	sent, recv         int64
	closed             bool
}

func (c *spyConn) Write(b []byte) (int, error) {
	if c.firstWrite.IsZero() {
		c.firstWrite = time.Now()
		c.op = sniffOp(b)
	}
	n, err := c.Conn.Write(b)
	c.sent += int64(n)
	return n, err
}

func (c *spyConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.recv += int64(n)
		c.lastRead = time.Now()
	}
	return n, err
}

func (c *spyConn) Close() error {
	if c.closed {
		return c.Conn.Close()
	}
	c.closed = true
	c.d.tot.open.Add(-1)
	if !c.firstWrite.IsZero() && !c.lastRead.IsZero() {
		c.d.rec.add(c.parent, spExchange, c.firstWrite, c.lastRead)
		ex, dial, life := c.lastRead.Sub(c.firstWrite), c.dialEnd.Sub(c.dialStart), time.Since(c.dialStart)
		c.d.mu.Lock()
		c.d.spent += dial + ex
		c.d.kids = append(c.d.kids, life)
		c.d.mu.Unlock()
		t := c.d.tot
		t.mu.Lock()
		o := t.ops[c.op]
		if o == nil {
			o = &opNet{}
			t.ops[c.op] = o
		}
		o.exchangeUS = append(o.exchangeUS, micros(ex))
		o.selfUS = append(o.selfUS, micros(life-dial-ex))
		o.conns++
		o.bytes += c.sent + c.recv
		t.mu.Unlock()
	}
	return c.Conn.Close()
}

// sniffOp reads the op out of a request's first bytes; the protocol's
// Request marshals "op" first.
func sniffOp(b []byte) string {
	const key = `{"op":"`
	if !bytes.HasPrefix(b, []byte(key)) {
		return "unknown"
	}
	rest := b[len(key):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return "unknown"
}
