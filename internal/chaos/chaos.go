// Package chaos injects deterministic, seedable transport faults into the
// networked iShare layer. An Injector implements the same Dial shape as
// ishare.Dialer, so plugging it into a client, broker or node makes every
// failure mode of the paper's availability model reproducible as a
// systems-level event rather than a trace annotation:
//
//   - connection refusal and registry partitions — the S5/URR observable
//     (the service is gone);
//   - dial and read latency — a host too loaded to answer promptly
//     (the S2→S3/UEC boundary);
//   - mid-stream drops — a service that dies while replying (URR mid-job);
//   - corrupted responses — a peer whose answers cannot be trusted.
//
// Faults are scripted: each Fault matches an address, optionally fires a
// bounded number of times, and can be enabled and disabled by name while
// the system runs, which is how the chaos soak test drives partition
// windows. Faults are planned per exchange: at the dial, then as each later
// request on the connection is written. Probabilistic faults draw from a
// single seeded generator, so a fixed seed and a fixed call sequence
// reproduce the same fault schedule.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"math/rand"

	"repro/internal/ishare"
)

// ErrRefused is the root cause of every injected dial refusal.
var ErrRefused = errors.New("chaos: connection refused")

// Fault describes one injected failure behavior for exchanges with Addr.
type Fault struct {
	// Name identifies the fault for Enable/Disable; empty names cannot be
	// toggled.
	Name string
	// Addr is the exact target address this fault applies to; empty
	// matches every address.
	Addr string
	// Refuse fails matching exchanges outright, dialed or on an open one.
	Refuse bool
	// RefuseProb fails matching exchanges with this probability (ignored
	// when Refuse is set).
	RefuseProb float64
	// DialLatency delays the dial (an open connection's request write); a
	// delay at or above the dial timeout fails the dial with a timeout error.
	DialLatency time.Duration
	// ReadLatency delays the first read of the exchange's response.
	ReadLatency time.Duration
	// DropAfterBytes closes the connection after that many bytes of the
	// exchange's response have been read — a mid-stream drop. Zero drops
	// immediately when DropProb fires.
	DropAfterBytes int
	// DropProb applies the drop with this probability; 0 with
	// DropAfterBytes > 0 means always.
	DropProb float64
	// CorruptProb flips a byte of the response with this probability.
	CorruptProb float64
	// Times bounds how many exchanges this fault fires on (0 =
	// unlimited). A fault that matched but did not fire (probability
	// gates all missed) does not consume a charge.
	Times int
	// Skip lets the first Skip matching exchanges pass unharmed before the
	// fault arms itself, so a schedule can target e.g. "the second
	// exchange with this node" deterministically.
	Skip int
}

// Injector is a fault-injecting dialer. The zero value is unusable; build
// one with New.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []*faultState
}

type faultState struct {
	f       Fault
	enabled bool
	fired   int
	skipped int
}

// New builds an injector whose probabilistic decisions are driven by the
// given seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Add registers a fault, enabled.
func (in *Injector) Add(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, &faultState{f: f, enabled: true})
}

// SetEnabled toggles every fault with the given name.
func (in *Injector) SetEnabled(name string, on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, fs := range in.faults {
		if fs.f.Name == name && fs.f.Name != "" {
			fs.enabled = on
		}
	}
}

// Partition refuses every exchange with addr, open connections' too, until
// Heal is called — the signature of a network partition or a dead service.
func (in *Injector) Partition(addr string) {
	in.Add(Fault{Name: "partition:" + addr, Addr: addr, Refuse: true})
}

// Heal lifts a Partition on addr.
func (in *Injector) Heal(addr string) {
	in.SetEnabled("partition:"+addr, false)
}

// connPlan is the set of faults one exchange will experience, decided
// when it starts so the rng is consumed in a single critical section.
type connPlan struct {
	refuse    bool
	dialDelay time.Duration
	readDelay time.Duration
	dropAfter int // -1 = never
	corrupt   bool
}

func (in *Injector) plan(addr string) connPlan {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := connPlan{dropAfter: -1}
	for _, fs := range in.faults {
		if !fs.enabled || (fs.f.Addr != "" && fs.f.Addr != addr) {
			continue
		}
		if fs.f.Times > 0 && fs.fired >= fs.f.Times {
			continue
		}
		if fs.skipped < fs.f.Skip {
			fs.skipped++
			continue
		}
		fired := false
		if fs.f.Refuse || (fs.f.RefuseProb > 0 && in.rng.Float64() < fs.f.RefuseProb) {
			p.refuse = true
			fired = true
		}
		if fs.f.DialLatency > 0 {
			p.dialDelay += fs.f.DialLatency
			fired = true
		}
		if fs.f.ReadLatency > 0 {
			p.readDelay += fs.f.ReadLatency
			fired = true
		}
		if fs.f.DropAfterBytes > 0 || fs.f.DropProb > 0 {
			if fs.f.DropProb == 0 || in.rng.Float64() < fs.f.DropProb {
				p.dropAfter = fs.f.DropAfterBytes
				fired = true
			}
		}
		if fs.f.CorruptProb > 0 && in.rng.Float64() < fs.f.CorruptProb {
			p.corrupt = true
			fired = true
		}
		if fired {
			fs.fired++
		}
	}
	return p
}

// Dial implements the ishare Dialer shape with each exchange's planned
// faults applied to a connection opened by ishare.DialTCP, the production dial.
func (in *Injector) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	p := in.plan(addr)
	if p.refuse {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrRefused}
	}
	if p.dialDelay > 0 {
		if p.dialDelay >= timeout {
			time.Sleep(timeout)
			return nil, fmt.Errorf("chaos: dial to %s timed out after %v", addr, timeout)
		}
		time.Sleep(p.dialDelay)
	}
	conn, err := ishare.DialTCP(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, in: in, addr: addr, plan: p}, nil
}

// ReusesConns tells a client it may keep a connection for many exchanges:
// the injector plans each exchange's faults as its request is written.
func (in *Injector) ReusesConns() bool { return true }

// faultConn applies each exchange's planned faults to one connection; a
// write after a read, the next request, starts the next exchange.
type faultConn struct {
	net.Conn
	in      *Injector
	addr    string
	plan    connPlan // the current exchange's
	reading bool     // the current exchange's response is being read
	nread   int      // of it
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.reading {
		c.reading, c.nread, c.plan = false, 0, c.in.plan(c.addr)
		if c.plan.refuse {
			_ = c.Conn.Close()
			return 0, &net.OpError{Op: "write", Net: "tcp", Err: ErrRefused}
		}
		if d := c.plan.dialDelay; d > 0 {
			time.Sleep(d)
		}
	}
	return c.Conn.Write(b)
}

func (c *faultConn) Read(b []byte) (int, error) {
	c.reading = true
	p := &c.plan
	if d := p.readDelay; d > 0 {
		p.readDelay = 0
		time.Sleep(d)
	}
	if p.dropAfter >= 0 && c.nread >= p.dropAfter {
		_ = c.Conn.Close()
		return 0, fmt.Errorf("chaos: connection to %s dropped mid-stream after %d bytes", c.RemoteAddr(), c.nread)
	}
	if p.dropAfter >= 0 && len(b) > p.dropAfter-c.nread {
		b = b[:p.dropAfter-c.nread]
	}
	n, err := c.Conn.Read(b)
	if n > 0 && p.corrupt {
		p.corrupt = false
		b[0] ^= 0x55
	}
	c.nread += n
	return n, err
}
