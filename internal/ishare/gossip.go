package ishare

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the decentralized discovery path of the control plane: a
// peer-to-peer anti-entropy exchange of compact NodeDigests. Every
// exchange is push-pull — the caller sends its view, the peer merges it
// and replies with its own — so state spreads epidemically through any
// connected subset of peers, with no registry in the loop. A broker
// holding a gossip store keeps placing jobs with every registry shard
// down; that failure mode is a full control-plane outage for a purely
// centralized design. Exchanges ride the same Dialer seam as every other
// protocol message, so chaos faults apply to gossip exactly as they do
// to registry traffic.

// GossipConfig configures a Gossiper.
type GossipConfig struct {
	// Self, when set, supplies this peer's own digest; it is prepended to
	// every outgoing exchange. Brokers that only listen leave it nil.
	Self func() NodeDigest
	// Peers seeds the exchange target set. Digests learned over gossip
	// carry addresses too, so the reachable peer set grows epidemically
	// beyond the seeds.
	Peers []string
	// Interval paces the background loop started by Start; zero means no
	// background loop — callers drive Tick explicitly (tests do).
	Interval time.Duration
	// Timeout bounds one exchange (default 2 s).
	Timeout time.Duration
	// Dialer overrides the TCP dial path (nil = plain TCP); fault
	// injectors hook in here.
	Dialer Dialer
	// Limits bounds exchange message sizes.
	Limits Limits
	// EvictAfter, when positive, bounds the store's memory: a digest whose
	// observation stamp is older than this is evicted on the next merge or
	// snapshot. Departed nodes stop refreshing their stamps — peers only
	// ever re-gossip the final one — so a churned-through fleet ages out
	// instead of growing the store forever. Digests that never carried a
	// stamp age from their local receipt time. Zero keeps digests
	// indefinitely (the pre-eviction behavior).
	EvictAfter time.Duration
	// Seed makes peer selection reproducible; 0 uses a fixed seed.
	Seed int64
	// Logger receives exchange failures at debug level. Nil discards.
	Logger *slog.Logger
	// Obs receives exchange/merge counters. Nil keeps them private.
	Obs *obs.Registry
}

const (
	// gossipFanout is how many peers one Tick exchanges with.
	gossipFanout = 2
	// gossipMaxDigests caps the digests carried in one exchange, keeping
	// messages within the protocol's size limits. When the store is larger,
	// the freshest digests win the slots.
	gossipMaxDigests = 1024
)

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// Gossiper maintains a store of node availability digests and keeps it
// convergent with its peers by periodic anti-entropy exchanges.
type Gossiper struct {
	cfg GossipConfig
	log *slog.Logger
	met *gossipMetrics // nil without an obs registry

	now func() time.Time // injectable clock for eviction tests

	mu    sync.Mutex
	store map[string]NodeDigest
	// seen records when each entry was last accepted (first insert or a
	// newer digest); the eviction fallback for stampless digests.
	seen map[string]int64
	rng  *rand.Rand

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// NewGossiper builds a gossiper; call Start for the background loop or
// drive Tick directly.
func NewGossiper(cfg GossipConfig) *Gossiper {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	g := &Gossiper{
		cfg:    cfg,
		now:    time.Now,
		log:    loggerOrDiscard(cfg.Logger),
		store:  make(map[string]NodeDigest),
		seen:   make(map[string]int64),
		rng:    rand.New(rand.NewSource(seed)),
		closed: make(chan struct{}),
	}
	if cfg.Obs != nil {
		g.met = newGossipMetrics(cfg.Obs)
	}
	return g
}

// Update upserts one digest into the local store (a node calls this when
// its own observed state changes). The usual newer-wins rule applies.
func (g *Gossiper) Update(d NodeDigest) {
	if d.Name == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mergeLocked(d)
}

func (g *Gossiper) mergeLocked(d NodeDigest) bool {
	old, ok := g.store[d.Name]
	if ok && !d.Newer(old) {
		return false
	}
	if d.Addr == "" {
		d.Addr = old.Addr // a digest without an address inherits the known one
	}
	g.store[d.Name] = d
	g.seen[d.Name] = g.now().UnixMilli()
	return true
}

// sweepLocked evicts digests older than the configured retention. A
// digest ages from its observation stamp when it carries one — a
// departed node's stamp freezes, so re-gossiped mentions cannot keep it
// alive — and from its local receipt time otherwise. Returns evictions.
func (g *Gossiper) sweepLocked() int {
	if g.cfg.EvictAfter <= 0 || len(g.store) == 0 {
		return 0
	}
	cutoff := g.now().UnixMilli() - g.cfg.EvictAfter.Milliseconds()
	evicted := 0
	for name, d := range g.store {
		stamp := d.UnixMS
		if stamp <= 0 {
			stamp = g.seen[name]
		}
		if stamp < cutoff {
			delete(g.store, name)
			delete(g.seen, name)
			evicted++
		}
	}
	return evicted
}

// Sweep applies the retention bound now, returning how many digests were
// evicted. Merges sweep automatically; callers with long idle gaps (a
// broker holding a store overnight) can force one.
func (g *Gossiper) Sweep() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sweepLocked()
}

// Merge folds a batch of digests into the store, returning how many were
// news (absent, or newer than the stored version).
func (g *Gossiper) Merge(ds []NodeDigest) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	news := 0
	for _, d := range ds {
		if d.Name == "" {
			continue
		}
		if g.mergeLocked(d) {
			news++
		}
	}
	g.sweepLocked()
	if g.met != nil && news > 0 {
		g.met.merged.Add(uint64(news))
	}
	return news
}

// Snapshot returns every stored digest, sorted by name.
func (g *Gossiper) Snapshot() []NodeDigest {
	g.mu.Lock()
	out := make([]NodeDigest, 0, len(g.store))
	for _, d := range g.store {
		out = append(out, d)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of stored digests.
func (g *Gossiper) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.store)
}

// digests assembles one outgoing view: the self digest first, then the
// freshest stored digests up to the configured cap.
func (g *Gossiper) digests() []NodeDigest {
	var self NodeDigest
	hasSelf := false
	if g.cfg.Self != nil {
		self = g.cfg.Self()
		hasSelf = self.Name != ""
	}
	out := make([]NodeDigest, 0, gossipMaxDigests)
	if hasSelf {
		out = append(out, self)
	}
	rest := g.Snapshot()
	// Freshest first so the cap drops the stalest digests; ties stay in
	// name order from Snapshot for determinism.
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].UnixMS > rest[j].UnixMS })
	for _, d := range rest {
		if len(out) >= gossipMaxDigests {
			break
		}
		if hasSelf && d.Name == self.Name {
			continue
		}
		out = append(out, d)
	}
	return out
}

// HandleRequest serves the receiving side of one exchange: merge what the
// peer sent, answer with our own view. Nodes route the "gossip" op here.
func (g *Gossiper) HandleRequest(req Request) *Response {
	g.Merge(req.Digests)
	if g.met != nil {
		g.met.serves.Inc()
	}
	return &Response{OK: true, Digests: g.digests()}
}

// Exchange performs one push-pull round with the peer at addr, over a
// connection of its own: rounds pick peers at random from the whole fleet,
// so a kept one would mostly idle out, holding a goroutine on its peer.
func (g *Gossiper) Exchange(ctx context.Context, addr string) error {
	resp, err := roundTrip(ctx, g.cfg.Dialer, nil, addr, Request{Op: "gossip", Digests: g.digests()}, g.cfg.Timeout, g.cfg.Limits, true)
	if err != nil {
		if g.met != nil {
			g.met.failures.Inc()
		}
		return err
	}
	if !resp.OK {
		if g.met != nil {
			g.met.failures.Inc()
		}
		return fmt.Errorf("ishare: gossip with %s failed: %s", addr, resp.Error)
	}
	g.Merge(resp.Digests)
	if g.met != nil {
		g.met.exchanges.Inc()
	}
	return nil
}

// peerAddrs returns the candidate exchange targets: the configured seeds
// plus every address learned from digests, deduplicated, minus self,
// sorted so seeded peer selection is deterministic.
func (g *Gossiper) peerAddrs() []string {
	seen := make(map[string]bool)
	var self string
	if g.cfg.Self != nil {
		self = g.cfg.Self().Addr
	}
	var out []string
	add := func(a string) {
		if a == "" || a == self || seen[a] {
			return
		}
		seen[a] = true
		out = append(out, a)
	}
	for _, p := range g.cfg.Peers {
		add(p)
	}
	g.mu.Lock()
	stored := make([]string, 0, len(g.store))
	for _, d := range g.store {
		stored = append(stored, d.Addr)
	}
	g.mu.Unlock()
	sort.Strings(stored)
	for _, a := range stored {
		add(a)
	}
	return out
}

// Tick runs one anti-entropy round: exchange with up to gossipFanout
// distinct peers chosen from the seeds and every gossip-learned address. It
// returns the number of successful exchanges; unreachable peers are
// skipped, not retried — the next round redraws.
func (g *Gossiper) Tick(ctx context.Context) int {
	peers := g.peerAddrs()
	if len(peers) == 0 {
		return 0
	}
	g.mu.Lock()
	g.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	g.mu.Unlock()
	n := min(gossipFanout, len(peers))
	ok := 0
	for _, addr := range peers[:n] {
		if err := g.Exchange(ctx, addr); err != nil {
			g.log.Debug("gossip exchange failed", "peer", addr, "err", err.Error())
			continue
		}
		ok++
	}
	return ok
}

// Start launches the background anti-entropy loop at the configured
// Interval. A zero interval makes Start a no-op (manual ticks only).
func (g *Gossiper) Start() {
	if g.cfg.Interval <= 0 {
		return
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-g.closed:
				return
			case <-t.C:
				g.Tick(context.Background())
			}
		}
	}()
}

// Close stops the background loop. The store stays readable.
func (g *Gossiper) Close() {
	g.once.Do(func() { close(g.closed) })
	g.wg.Wait()
}
