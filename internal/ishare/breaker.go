package ishare

import (
	"sync"
	"time"
)

// breaker is a per-shard circuit breaker: after Threshold consecutive
// failures it opens and every allow() is denied until Cooldown elapses,
// at which point exactly one probe is let through (half-open). A probe
// success closes the breaker; a probe failure re-opens it for another
// cooldown. The broker front-ends each registry shard with one of these
// so a dead or drowning shard costs the discovery fan-out one skipped
// call instead of a full dial timeout per round — which is also exactly
// the backpressure a recovering shard needs while it absorbs the
// re-register herd.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu        sync.Mutex
	failures  int
	openUntil time.Time
	probing   bool // half-open: one probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 500 * time.Millisecond
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a call may proceed. While open it denies; once
// the cooldown has elapsed it admits a single half-open probe and keeps
// denying concurrent callers until that probe reports via result.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if b.now().Before(b.openUntil) {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// result records a call's outcome and returns true when this failure is
// the one that tripped the breaker open (for the opens counter).
func (b *breaker) result(ok bool) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures = 0
		b.openUntil = time.Time{}
		b.probing = false
		return false
	}
	b.probing = false
	if !b.openUntil.IsZero() {
		// A failed half-open probe re-arms the cooldown.
		b.openUntil = b.now().Add(b.cooldown)
		return false
	}
	b.failures++
	if b.failures >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
		return true
	}
	return false
}
