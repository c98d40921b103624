package ishare

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"time"
)

// This file is the fault seam of the networked layer: every TCP dial goes
// through a pluggable Dialer, every server handler is bounded by Limits,
// and every retried operation paces itself with RetryPolicy. Production
// code uses the defaults; the chaos package substitutes a fault-injecting
// Dialer to make the paper's failure modes (transient unreachability,
// slow peers, mid-stream service death, URR) reproducible at the
// systems level.

// Dialer opens a TCP connection for request/response exchanges. The zero
// value of client and node configs uses DialTCP; fault injectors substitute
// one that refuses, delays, drops or corrupts traffic. A connection carries
// one exchange, unless the Dialer has a ReusesConns method returning true
// (the default's and chaos's do): a client then keeps it for its next
// exchange with the address. One that accounts per connection needs none.
type Dialer interface {
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// DialTCP is the production dial. A connection idles at most IODeadline
// (10 s by default), under the first keepalive probe (15 s), so it skips
// the keepalive set-up (four setsockopt calls) Go's default dial makes. A
// fault injector dials through it so a chaos run pays the same connection
// set-up as production.
func DialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout, KeepAlive: -1}
	return d.Dial("tcp", addr)
}

// listenTCP is the registry's and the node's listen: what it accepts idles
// at most IODeadline, under the first keepalive probe, so keepalive is off.
func listenTCP(addr string) (net.Listener, error) {
	lc := net.ListenConfig{KeepAlive: -1}
	return lc.Listen(context.Background(), "tcp", addr)
}

// tcpDialer is the production Dialer.
type tcpDialer struct{}

func (tcpDialer) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return DialTCP(addr, timeout)
}

func (tcpDialer) ReusesConns() bool { return true }

// dialerOrDefault resolves a possibly-nil configured Dialer.
func dialerOrDefault(d Dialer) Dialer {
	if d == nil {
		return tcpDialer{}
	}
	return d
}

// Limits bounds one protocol exchange so a slow or malicious peer cannot
// pin a handler: the message size caps how much a reader will buffer, the
// I/O deadline caps how long a server waits to read a request or flush a
// response.
type Limits struct {
	// MaxMessageBytes caps one JSON request or response (default 1 MiB).
	MaxMessageBytes int64
	// IODeadline bounds the server-side read and write of one exchange and
	// the time a connection idles between exchanges (default 10 s).
	IODeadline time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxMessageBytes <= 0 {
		l.MaxMessageBytes = 1 << 20
	}
	if l.IODeadline <= 0 {
		l.IODeadline = 10 * time.Second
	}
	return l
}

// RetryPolicy paces retries of idempotent operations (list, info,
// heartbeat): exponential backoff, each delay jittered by ±retryJitter,
// under a bounded attempt budget.
// Submissions are never retried blindly at this level — the broker owns
// failover and checkpointed resubmission.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 30 ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 500 ms).
	MaxDelay time.Duration
	// Seed makes the jitter sequence reproducible; 0 uses a fixed seed so
	// two clients with zero-value policies behave identically.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 30 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	return p
}

// retryJitter is the ± fraction applied to each retry delay.
const retryJitter = 0.2

// jitterRand is a lock-guarded rand shared by concurrent retriers.
type jitterRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitterRand(seed int64) *jitterRand {
	if seed == 0 {
		seed = 1
	}
	return &jitterRand{rng: rand.New(rand.NewSource(seed))}
}

// frac returns a uniform value in [-1, 1).
func (j *jitterRand) frac() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return 2*j.rng.Float64() - 1
}

// backoffDelay computes the jittered exponential delay before attempt
// (attempt 1 = first retry).
func backoffDelay(p RetryPolicy, attempt int, jr *jitterRand) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if jr != nil {
		d += time.Duration(float64(d) * retryJitter * jr.frac())
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleepCtx waits d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
