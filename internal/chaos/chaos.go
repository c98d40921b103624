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
// windows. Probabilistic faults draw from a single seeded generator, so a
// fixed seed and a fixed call sequence reproduce the same fault schedule.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"repro/internal/ishare"
)

// ErrRefused is the root cause of every injected dial refusal.
var ErrRefused = errors.New("chaos: connection refused")

// Fault describes one injected failure behavior for connections to Addr.
type Fault struct {
	// Name identifies the fault for Enable/Disable; empty names cannot be
	// toggled.
	Name string
	// Addr is the exact target address this fault applies to; empty
	// matches every address.
	Addr string
	// Refuse fails matching dials outright.
	Refuse bool
	// RefuseProb fails matching dials with this probability (ignored when
	// Refuse is set).
	RefuseProb float64
	// DialLatency delays the dial before it proceeds; a delay at or above
	// the dial timeout fails the dial with a timeout error.
	DialLatency time.Duration
	// ReadLatency delays the first read on the connection.
	ReadLatency time.Duration
	// DropAfterBytes closes the connection after that many response bytes
	// have been read — a mid-stream drop. Zero drops immediately when
	// DropProb fires.
	DropAfterBytes int
	// DropProb applies the drop with this probability; 0 with
	// DropAfterBytes > 0 means always.
	DropProb float64
	// CorruptProb flips a byte of the response with this probability.
	CorruptProb float64
	// Times bounds how many connections this fault fires on (0 =
	// unlimited). A fault that matched but did not fire (probability
	// gates all missed) does not consume a charge.
	Times int
	// Skip lets the first Skip matching connections pass unharmed before
	// the fault arms itself, so a schedule can target e.g. "the second
	// exchange with this node" deterministically.
	Skip int
}

// Counters reports how many faults of each kind were injected.
type Counters struct {
	// Dials counts every dial that went through the injector.
	Dials int64
	// Refused counts dials failed with ErrRefused.
	Refused int64
	// Delayed counts injected dial or read delays.
	Delayed int64
	// Dropped counts connections closed mid-stream.
	Dropped int64
	// Corrupted counts responses with a flipped byte.
	Corrupted int64
}

// Injector is a fault-injecting dialer. The zero value is unusable; build
// one with New.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults []*faultState

	dials, refused, delayed, dropped, corrupted atomic.Int64
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

// Partition refuses every dial to addr until Heal is called — the
// wire-level signature of a network partition or a dead service.
func (in *Injector) Partition(addr string) {
	in.Add(Fault{Name: "partition:" + addr, Addr: addr, Refuse: true})
}

// Heal lifts a Partition on addr.
func (in *Injector) Heal(addr string) {
	in.SetEnabled("partition:"+addr, false)
}

// Counters returns a snapshot of the injected-fault counts.
func (in *Injector) Counters() Counters {
	return Counters{
		Dials:     in.dials.Load(),
		Refused:   in.refused.Load(),
		Delayed:   in.delayed.Load(),
		Dropped:   in.dropped.Load(),
		Corrupted: in.corrupted.Load(),
	}
}

// connPlan is the set of faults one connection will experience, decided at
// dial time so the rng is consumed in a single critical section.
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

// Dial implements the ishare Dialer shape with the planned faults applied
// to a connection opened by ishare.DialTCP, the production dial.
func (in *Injector) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	in.dials.Add(1)
	p := in.plan(addr)
	if p.refuse {
		in.refused.Add(1)
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrRefused}
	}
	if p.dialDelay > 0 {
		in.delayed.Add(1)
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
	if p.readDelay > 0 || p.dropAfter >= 0 || p.corrupt {
		return &faultConn{Conn: conn, in: in, readDelay: p.readDelay, dropAfter: p.dropAfter, corrupt: p.corrupt}, nil
	}
	return conn, nil
}

// faultConn applies read-side faults to one connection.
type faultConn struct {
	net.Conn
	in        *Injector
	readDelay time.Duration
	dropAfter int // -1 = never
	corrupt   bool
	nread     int
}

func (c *faultConn) Read(b []byte) (int, error) {
	if d := c.readDelay; d > 0 {
		c.readDelay = 0
		c.in.delayed.Add(1)
		time.Sleep(d)
	}
	if c.dropAfter >= 0 && c.nread >= c.dropAfter {
		c.in.dropped.Add(1)
		_ = c.Conn.Close()
		return 0, fmt.Errorf("chaos: connection to %s dropped mid-stream after %d bytes", c.RemoteAddr(), c.nread)
	}
	if c.dropAfter >= 0 && len(b) > c.dropAfter-c.nread {
		b = b[:c.dropAfter-c.nread]
	}
	n, err := c.Conn.Read(b)
	if n > 0 && c.corrupt {
		c.corrupt = false
		b[0] ^= 0x55
		c.in.corrupted.Add(1)
	}
	c.nread += n
	return n, err
}
