package ishare

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Broker is the client-side placement component: it discovers published
// resources, ranks them by the availability digests their shards hold, and
// submits guest jobs to the most available one (S1 before S2; failure
// states and dead nodes are never used). It realizes, at the systems
// level, the same decision the gsched policies make over traces — and,
// because FGCS resources fail by design, it also owns recovery: failover
// to the next candidate when a submission dies, resubmission of killed
// jobs from their last virtual checkpoint, and placement from
// last-known-good node lists when registries are unreachable.
//
// Against a sharded control plane the broker fans discovery out to every
// shard (discoverConcurrency at a time), keeps one stale-fallback cache
// per shard so losing a shard degrades only that shard's slice of the
// fleet, and merges the per-shard lists into one ranked candidate list.
type Broker struct {
	Client *Client
	// CacheTTL bounds how stale a shard's last-known-good node list may be
	// and still serve placements during a registry partition (default 30 s).
	CacheTTL time.Duration
	// MaxRounds caps placement rounds per job: one round is one ranked
	// pass over the candidates (default 8).
	MaxRounds int
	// RoundDelay paces consecutive rounds (default 50 ms).
	RoundDelay time.Duration
	// DiscoverLimit is how many alive nodes each shard's ranked list may
	// return, best availability classes first (default 32).
	DiscoverLimit int
	// BreakerThreshold, when positive, arms a circuit breaker per registry
	// shard: after that many consecutive list failures the shard is
	// skipped (short-circuited to its stale cache) until BreakerCooldown
	// elapses, then probed with a single call. Zero disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker denies calls before the
	// half-open probe (default 500 ms).
	BreakerCooldown time.Duration
	// Obs receives the broker's counters and latency histograms. Leave nil
	// to keep the metrics private (a registry is created lazily); set it
	// before first use to export them on a shared /metrics endpoint.
	Obs *obs.Registry
	// Logger receives structured per-job events (submissions, failovers,
	// resubmissions) carrying the job's trace ID. Nil discards them.
	Logger *slog.Logger

	jobSeq atomic.Int64

	metMu  sync.Mutex
	met    *brokerMetrics
	metObs *obs.Registry // the registry met was built against

	mu       sync.Mutex
	cache    map[string]shardCache // per shard address
	breakers map[string]*breaker   // per shard address, nil entries never created when disabled
}

// shardCache is one shard's last-known-good node list.
type shardCache struct {
	nodes []NodeInfo
	at    time.Time
}

// BrokerMetrics is a snapshot of the broker's recovery counters. All
// fields are cumulative since construction.
type BrokerMetrics struct {
	// StaleServes counts per-shard candidate lists served from the cached
	// node list because that shard was unreachable.
	StaleServes int
	// RegistryErrors counts discovery attempts that failed outright
	// (every shard unreachable and no usable cache).
	RegistryErrors int
	// ShardErrors counts individual shard list calls that failed during
	// fan-out discovery (the shard may still have been served stale).
	ShardErrors int
	// Failovers counts submissions moved to the next candidate after a
	// transport failure.
	Failovers int
	// SameNodeRetries counts dedup-safe immediate retries of a submission
	// on the same node after a dropped response.
	SameNodeRetries int
	// Resubmissions counts jobs resubmitted from a checkpoint after being
	// killed (URR/UEC) or timing out.
	Resubmissions int
	// DedupHits counts submissions answered from a node's completed-job
	// cache rather than by running the job again.
	DedupHits int
	// BreakerOpens counts per-shard circuit breakers tripping open after
	// consecutive discovery failures.
	BreakerOpens int
	// BreakerShortCircuits counts shard list calls skipped outright
	// because the shard's breaker was open.
	BreakerShortCircuits int
}

// NewBroker builds a broker over a single registry.
func NewBroker(registryAddr string) *Broker {
	return &Broker{Client: &Client{Shards: []string{registryAddr}}}
}

// metrics returns the broker's counter set, creating it (and, if needed, a
// private registry) on first use. The client shares the broker's registry
// unless it already has its own. If a caller installs its own Obs registry
// after the lazy private one already existed, the metrics are rebuilt in
// the caller's registry on the next use (cumulative counts restart there)
// — a caller-supplied registry is never silently shadowed by the private
// one. Obs must not be reassigned concurrently with broker use.
func (b *Broker) metrics() *brokerMetrics {
	b.metMu.Lock()
	defer b.metMu.Unlock()
	if b.met != nil && (b.Obs == nil || b.Obs == b.metObs) {
		return b.met
	}
	if b.Obs == nil {
		b.Obs = obs.NewRegistry()
	}
	prev := b.metObs
	b.metObs = b.Obs
	b.met = newBrokerMetrics(b.Obs)
	if b.Client != nil && (b.Client.Obs == nil || b.Client.Obs == prev) {
		b.Client.Obs = b.Obs
	}
	return b.met
}

func (b *Broker) logger() *slog.Logger { return loggerOrDiscard(b.Logger) }

// Metrics returns a snapshot of the broker's recovery counters. It is safe
// to call concurrently with submissions: every counter is an atomic in the
// broker's obs registry.
func (b *Broker) Metrics() BrokerMetrics {
	m := b.metrics()
	return BrokerMetrics{
		StaleServes:     int(m.staleServes.Value()),
		RegistryErrors:  int(m.registryErrors.Value()),
		ShardErrors:     int(m.shardErrors.Value()),
		Failovers:       int(m.failovers.Value()),
		SameNodeRetries: int(m.sameNodeRetries.Value()),
		Resubmissions:   int(m.resubmissions.Value()),
		DedupHits:       int(m.dedupHits.Value()),

		BreakerOpens:         int(m.breakerOpens.Value()),
		BreakerShortCircuits: int(m.breakerShorts.Value()),
	}
}

// breakerFor returns the shard's circuit breaker, creating it on first
// use; nil when breakers are disabled.
func (b *Broker) breakerFor(addr string) *breaker {
	if b.BreakerThreshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.breakers == nil {
		b.breakers = make(map[string]*breaker)
	}
	br, ok := b.breakers[addr]
	if !ok {
		br = newBreaker(b.BreakerThreshold, b.BreakerCooldown, nil)
		b.breakers[addr] = br
	}
	return br
}

func (b *Broker) cacheTTL() time.Duration {
	if b.CacheTTL <= 0 {
		return 30 * time.Second
	}
	return b.CacheTTL
}

func (b *Broker) maxRounds() int {
	if b.MaxRounds <= 0 {
		return 8
	}
	return b.MaxRounds
}

func (b *Broker) roundDelay() time.Duration {
	if b.RoundDelay <= 0 {
		return 50 * time.Millisecond
	}
	return b.RoundDelay
}

func (b *Broker) discoverLimit() int {
	if b.DiscoverLimit <= 0 {
		return 32
	}
	return b.DiscoverLimit
}

// Candidate is a scored placement option.
type Candidate struct {
	Node  NodeInfo
	State string
	// Score orders candidates: lower is better (0 = S1, 1 = S2).
	Score int
	// Stale is true when this candidate came from a shard's cached node
	// list because live discovery of that shard was unavailable.
	Stale bool
}

// discoverConcurrency is how many shards one discovery lists at a time.
const discoverConcurrency = 4

// errBreakerOpen marks a shard skipped by its open circuit breaker
// during fan-out discovery.
var errBreakerOpen = fmt.Errorf("ishare: shard skipped: circuit breaker open")

// rankState maps a node's reported state to a placement score; states that
// cannot host a guest return -1.
func rankState(state string) int {
	switch {
	case strings.HasPrefix(state, "S1"):
		return 0
	case strings.HasPrefix(state, "S2"):
		return 1
	default:
		return -1
	}
}

// discover fans discovery out across every shard, degrading per shard to
// that shard's cached last-known-good list (within CacheTTL). It returns the
// lists it got, in shard order; stale is true when any of them came from a
// cache. With every shard failed and no cache usable it returns the last
// shard error.
func (b *Broker) discover(ctx context.Context) (lists [][]NodeInfo, stale bool, err error) {
	m := b.metrics()
	addrs := b.Client.Shards
	type shardResult struct {
		nodes []NodeInfo
		err   error
	}
	results := make([]shardResult, len(addrs))
	par.For(len(addrs), discoverConcurrency, func(_ *struct{}, i int) error {
		addr := addrs[i]
		br := b.breakerFor(addr)
		if br != nil && !br.allow() {
			// Open breaker: skip the call entirely. The shard still counts
			// as failed, so its stale cache serves exactly as for a live
			// error — the fan-out just stops paying a dial timeout for it.
			m.breakerShorts.Inc()
			results[i] = shardResult{err: errBreakerOpen}
			return nil
		}
		nodes, err := b.Client.ListShard(ctx, addr, b.discoverLimit())
		if br != nil && br.result(err == nil) {
			m.breakerOpens.Inc()
			b.logger().Log(ctx, slog.LevelWarn, "shard circuit breaker opened",
				"trace", TraceIDFrom(ctx), "shard", addr)
		}
		results[i] = shardResult{nodes: nodes, err: err}
		return nil
	})

	lists = make([][]NodeInfo, 0, len(addrs))
	listed := 0
	errs := 0
	lastErr := errNoShards // what a broker with no shards reports
	now := time.Now()
	b.mu.Lock()
	if b.cache == nil {
		b.cache = make(map[string]shardCache)
	}
	for i, addr := range addrs {
		res := results[i]
		if res.err == nil {
			// No copy: the reply's slice is this call's alone, and nothing
			// writes it after; this call and later stale serves only read it.
			b.cache[addr] = shardCache{nodes: res.nodes, at: now}
			lists = append(lists, res.nodes)
			listed += len(res.nodes)
			continue
		}
		errs++
		lastErr = res.err
		m.shardErrors.Inc()
		if c, ok := b.cache[addr]; ok && len(c.nodes) > 0 && now.Sub(c.at) <= b.cacheTTL() {
			m.staleServes.Inc()
			stale = true
			lists = append(lists, c.nodes)
			listed += len(c.nodes)
			b.logger().Log(ctx, slog.LevelWarn, "registry shard unreachable, serving cached node list",
				"trace", TraceIDFrom(ctx), "shard", addr, "cached_nodes", len(c.nodes), "err", res.err.Error())
		}
	}
	b.mu.Unlock()

	if listed > 0 || errs < len(addrs) {
		return lists, stale, nil
	}
	m.registryErrors.Inc()
	return nil, false, lastErr
}

var errNoShards = errors.New("ishare: client has no registry shards")

// Candidates returns the usable nodes across every shard, ordered
// best-first. Each listed node is ranked by the digest state its shard
// holds; no node is dialed, so a node that died within the registry TTL can
// still be listed, and SubmitBest's failover is what moves past it. During
// registry partitions discovery falls back per shard to the last-known-good
// node list (within CacheTTL), so a broker keeps placing jobs on previously
// discovered resources through a partition; with every shard down and no
// usable cache it returns the last shard error.
func (b *Broker) Candidates(ctx context.Context) ([]Candidate, error) {
	m := b.metrics()
	start := time.Now()
	defer func() { m.discoverSeconds.Observe(time.Since(start).Seconds()) }()
	lists, stale, err := b.discover(ctx)
	if err != nil {
		return nil, err
	}
	return rankCandidates(lists, stale), nil
}

// rankRef is one hostable node of a discovery, as rankCandidates sorts it:
// where it is, its score, and its place in the lists' concatenation.
type rankRef struct {
	node       *NodeInfo
	score, seq int
}

// rankCandidates merges the shards' node lists into one candidate list in
// rankCmp's order (score, load, name), a name listed twice in list order,
// as a stable sort of the concatenated lists leaves it. A shard's reply is
// outside input: what cannot host a guest is dropped, and the order does not
// rely on a reply being ranked. The sort moves 24-byte references, not
// 128-byte candidates, and each candidate is built once, in its place.
func rankCandidates(lists [][]NodeInfo, stale bool) []Candidate {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	refs := make([]rankRef, 0, n)
	for _, l := range lists {
		for i := range l {
			if score := rankState(l[i].State); score >= 0 {
				refs = append(refs, rankRef{node: &l[i], score: score, seq: len(refs)})
			}
		}
	}
	// seq breaks every tie, so the unstable sort gives the stable order.
	slices.SortFunc(refs, func(a, b rankRef) int {
		if c := rankCmp(a.score, b.score, a.node, b.node); c != 0 {
			return c
		}
		return a.seq - b.seq
	})
	out := make([]Candidate, len(refs))
	for i, r := range refs {
		out[i] = Candidate{Node: *r.node, State: r.node.State, Score: r.score, Stale: stale}
	}
	return out
}

// submitOnce sends one submission, with a single dedup-safe retry on the
// same node: a transport error leaves the job's fate unknown (the node may
// have finished it and lost the response mid-stream), and because nodes
// cache completed job IDs the retry either returns that cached result or
// establishes that the node is gone.
func (b *Broker) submitOnce(ctx context.Context, addr string, job JobSpec) (*JobResult, error) {
	res, err := b.Client.Submit(ctx, addr, job)
	if err == nil {
		return res, nil
	}
	if ctx.Err() != nil {
		return nil, err
	}
	b.metrics().sameNodeRetries.Inc()
	b.logger().Log(ctx, slog.LevelInfo, "retrying submission on same node after dropped response",
		"trace", TraceIDFrom(ctx), "job", job.ID, "node_addr", addr)
	return b.Client.Submit(ctx, addr, job)
}

// SubmitBest places the job on the best available node and shepherds it to
// completion: transport failures fail over to the next candidate, and jobs
// killed by resource revocation resume on a fresh candidate from the
// virtual checkpoint reported in their JobResult rather than from zero.
// It returns the completing result and the node that finished the job.
func (b *Broker) SubmitBest(ctx context.Context, job JobSpec) (*JobResult, NodeInfo, error) {
	if job.ID == "" {
		job.ID = fmt.Sprintf("%s#%d", job.Name, b.jobSeq.Add(1))
	}
	// The job ID doubles as its trace ID: every exchange of this placement
	// (discovery, submissions, retries) is stamped with it on the wire, so
	// logs on the broker, registry and nodes correlate.
	if TraceIDFrom(ctx) == "" {
		ctx = WithTraceID(ctx, job.ID)
	}
	m := b.metrics()
	m.submissions.Inc()
	start := time.Now()
	defer func() { m.submitSeconds.Observe(time.Since(start).Seconds()) }()
	b.logger().Log(ctx, slog.LevelInfo, "placing job",
		"trace", TraceIDFrom(ctx), "job", job.ID, "cpu_seconds", job.CPUSeconds)

	resume := job.ResumeCPUSeconds
	rounds := b.maxRounds()
	var lastErr error
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := sleepCtx(ctx, b.roundDelay()); err != nil {
				return nil, NodeInfo{}, err
			}
		}
		cands, err := b.Candidates(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if len(cands) == 0 {
			lastErr = fmt.Errorf("ishare: no available resources")
			continue
		}
		for _, c := range cands {
			attempt := job
			attempt.ResumeCPUSeconds = resume
			res, err := b.submitOnce(ctx, c.Node.Addr, attempt)
			if err != nil {
				// The node died under the submission: fail over.
				lastErr = err
				m.failovers.Inc()
				b.logger().Log(ctx, slog.LevelWarn, "submission failed, failing over",
					"trace", TraceIDFrom(ctx), "job", job.ID, "node", c.Node.Name, "err", err.Error())
				continue
			}
			if res.Deduped {
				m.dedupHits.Inc()
				b.logger().Log(ctx, slog.LevelInfo, "submission answered from node dedup cache",
					"trace", TraceIDFrom(ctx), "job", job.ID, "node", c.Node.Name)
			}
			if res.Completed {
				m.completions.Inc()
				b.logger().Log(ctx, slog.LevelInfo, "job completed",
					"trace", TraceIDFrom(ctx), "job", job.ID, "node", c.Node.Name,
					"wall_seconds", res.WallSeconds, "suspensions", res.Suspensions, "deduped", res.Deduped)
				return res, c.Node, nil
			}
			// Killed (URR/UEC) or out of budget: checkpoint the progress
			// the node reported and re-rank from scratch — the node that
			// just killed the guest is usually about to leave the
			// candidate set.
			if res.GuestCPUSeconds > resume && res.GuestCPUSeconds < job.CPUSeconds {
				resume = res.GuestCPUSeconds
			}
			m.resubmissions.Inc()
			b.logger().Log(ctx, slog.LevelWarn, "job interrupted, resubmitting from checkpoint",
				"trace", TraceIDFrom(ctx), "job", job.ID, "node", c.Node.Name,
				"outcome", res.Outcome, "final_state", res.FinalState, "resume_cpu_seconds", resume)
			lastErr = fmt.Errorf("ishare: job %q %s on %s in %s at %.0f/%.0f cpu-s",
				job.Name, res.Outcome, c.Node.Name, res.FinalState, res.GuestCPUSeconds, job.CPUSeconds)
			break
		}
	}
	return nil, NodeInfo{}, fmt.Errorf("ishare: submit %q failed after %d rounds: %w", job.Name, rounds, lastErr)
}
