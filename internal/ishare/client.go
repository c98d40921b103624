package ishare

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Client talks to a registry and its published nodes. Idempotent
// operations (list, info) are retried with jittered exponential
// backoff under the configured RetryPolicy; submissions are sent exactly
// once per call — failover and resubmission belong to the Broker, which
// knows how to do them without running a job twice. It keeps connections
// open for its next exchanges (roundTrip).
type Client struct {
	// Shards lists every registry shard, one entry for a single registry:
	// List fans out over all shards and merges, and shard-routed operations
	// hash node IDs over this list.
	Shards []string
	// Timeout bounds each request attempt (default 3 s).
	Timeout time.Duration
	// Dialer overrides the TCP dial path (nil = plain TCP). Fault
	// injectors hook in here.
	Dialer Dialer
	// Retry paces idempotent-operation retries.
	Retry RetryPolicy
	// Limits bounds response sizes read by this client; a connection idle
	// for half its IODeadline is closed, not reused.
	Limits Limits
	// Obs receives per-operation request/retry/failure counters and latency
	// histograms. Leave nil to skip client-side instrumentation entirely.
	Obs *obs.Registry

	once sync.Once
	jr   *jitterRand

	metOnce sync.Once
	met     *clientMetrics

	pool connPool
}

// metrics returns the client's metric set, or nil when no registry was
// attached (the uninstrumented path stays allocation-free).
func (c *Client) metrics() *clientMetrics {
	if c.Obs == nil {
		return nil
	}
	c.metOnce.Do(func() {
		c.met = newClientMetrics(c.Obs)
		c.pool.dials = c.met.dials
	})
	return c.met
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

// submitTimeout bounds a submission attempt. Jobs run in virtual time, so
// this is slack, not job length.
const submitTimeout = 30 * time.Second

func (c *Client) jitter() *jitterRand {
	c.once.Do(func() { c.jr = newJitterRand(c.Retry.Seed) })
	return c.jr
}

// do performs one logical exchange. Idempotent requests are retried on
// transport errors; application-level failures (resp.OK == false) are
// returned to the caller immediately since the peer demonstrably saw the
// request — except load sheds: a response carrying RetryAfterMS is the
// registry's admission control asking this caller to back off, so
// idempotent requests honor the hint (the retry waits at least that
// long) and retry within the normal attempt budget. When the budget runs
// out the shed response itself is returned, so callers distinguish "the
// registry is overloaded" from "the registry rejected this request".
func (c *Client) do(ctx context.Context, addr string, req Request, timeout time.Duration, idempotent bool) (*Response, error) {
	// Stamp the context's trace ID onto the wire so the serving side can
	// log the exchange under the same ID.
	if req.Trace == "" {
		req.Trace = TraceIDFrom(ctx)
	}
	m := c.metrics()
	var om *clientOpMetrics
	var start time.Time
	if m != nil {
		om = m.op(req.Op)
		om.requests.Inc()
		start = time.Now()
	}
	p := c.Retry.withDefaults()
	attempts := 1
	if idempotent {
		attempts = p.MaxAttempts
	}
	var lastErr error
	var shedResp *Response
	var shedFloor time.Duration
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if m != nil {
				m.retry(req.Op).Inc()
			}
			d := backoffDelay(p, a, c.jitter())
			if d < shedFloor {
				d = shedFloor // a shed's retry-after hint floors the backoff
			}
			shedFloor = 0
			if err := sleepCtx(ctx, d); err != nil {
				break
			}
		}
		resp, err := roundTrip(ctx, c.Dialer, &c.pool, addr, req, timeout, c.Limits, idempotent)
		if err == nil {
			if !resp.OK && resp.RetryAfterMS > 0 && idempotent && a+1 < attempts {
				shedResp = resp
				shedFloor = time.Duration(resp.RetryAfterMS) * time.Millisecond
				continue
			}
			if m != nil {
				om.latency.Observe(time.Since(start).Seconds())
			}
			return resp, nil
		}
		lastErr = err
		shedResp = nil
		if ctx.Err() != nil {
			break
		}
	}
	if m != nil {
		m.failure(req.Op).Inc()
		om.latency.Observe(time.Since(start).Seconds())
	}
	if shedResp != nil {
		return shedResp, nil
	}
	return nil, lastErr
}

// List returns the published nodes across every configured shard, sorted
// by name. Any shard failing fails the whole call — partial discovery
// with per-shard stale fallback is the Broker's job.
func (c *Client) List(ctx context.Context) ([]NodeInfo, error) {
	var all []NodeInfo
	for _, addr := range c.Shards {
		nodes, err := c.ListShard(ctx, addr, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, nodes...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all, nil
}

// ListShard lists one registry shard. A positive limit requests the
// shard's ranked list, the broker's discovery form: up to limit alive S1
// and S2 nodes, best class first, digest states included. Zero returns
// every registered node, dead ones included: the full listing for
// operators and checks, not for placement.
func (c *Client) ListShard(ctx context.Context, addr string, limit int) ([]NodeInfo, error) {
	resp, err := c.do(ctx, addr, Request{Op: "list", Limit: limit}, c.timeout(), true)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("ishare: list failed: %s", resp.Error)
	}
	return resp.Nodes, nil
}

// Forecast asks the registry shard at addr for availability forecasts
// over the given horizon, one ForecastInfo per name in request order. The
// registry must have been started with RegistryOptions.Forecast; otherwise
// the call fails.
func (c *Client) Forecast(ctx context.Context, addr string, names []string, horizon time.Duration) ([]ForecastInfo, error) {
	req := Request{Op: "forecast", Names: names, HorizonMS: horizon.Milliseconds()}
	resp, err := c.do(ctx, addr, req, c.timeout(), true)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("ishare: forecast failed: %s", resp.Error)
	}
	return resp.Forecasts, nil
}

// RegisterBatch registers a batch of nodes (with optional availability
// digests) on one registry shard. The caller is responsible for routing
// the batch to the shard owning its names (see ShardRing); loadtest
// drivers and fleet controllers use this to publish large populations
// without one round trip per node.
func (c *Client) RegisterBatch(ctx context.Context, addr string, batch []NodeDigest) error {
	resp, err := c.do(ctx, addr, Request{Op: "register_batch", Digests: batch}, c.timeout(), true)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("ishare: register_batch failed: %s", resp.Error)
	}
	return nil
}

// HeartbeatBatch refreshes liveness (and any carried digests) for a batch
// of nodes on one shard. It returns the names the shard does not know —
// after a shard restart, exactly those need re-registration.
func (c *Client) HeartbeatBatch(ctx context.Context, addr string, batch []NodeDigest) ([]string, error) {
	resp, err := c.do(ctx, addr, Request{Op: "heartbeat_batch", Digests: batch}, c.timeout(), true)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("ishare: heartbeat_batch failed: %s", resp.Error)
	}
	return resp.Missing, nil
}

// Info queries one node's availability status. Placement never calls it
// (the broker ranks digests); it is a debugging call.
func (c *Client) Info(ctx context.Context, nodeAddr string) (*NodeStatus, error) {
	resp, err := c.do(ctx, nodeAddr, Request{Op: "info"}, c.timeout(), true)
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Info == nil {
		return nil, fmt.Errorf("ishare: info failed: %s", resp.Error)
	}
	return resp.Info, nil
}

// Submit sends a guest job to a node and waits for its fate. The node
// simulates the job in virtual time, so the call returns promptly even for
// hour-long jobs. Submit does not retry: a transport error leaves the
// job's fate unknown, and only an ID-carrying resubmission (see Broker)
// can resolve that safely.
func (c *Client) Submit(ctx context.Context, nodeAddr string, job JobSpec) (*JobResult, error) {
	resp, err := c.do(ctx, nodeAddr, Request{Op: "submit", Job: &job}, submitTimeout, false)
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Job == nil {
		return nil, fmt.Errorf("ishare: submit failed: %s", resp.Error)
	}
	return resp.Job, nil
}
