package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/ishare"
	"repro/internal/markov"
	"repro/internal/par"
)

// paperStates is the stationary availability-state distribution the fleet
// is drawn from, approximating the paper's empirical occupancy of the
// five-state model (most machines fully available, a steady tail of
// loaded and revoked ones). Churn re-draws from the same distribution,
// which keeps the fleet's aggregate behavior stationary — the ergodic
// framing under which the paper's multi-state availability model is fit.
var paperStates = []stateProb{
	{"S1(full)", 0.55},
	{"S2(lowest-priority)", 0.20},
	{"S3(cpu-unavail)", 0.10},
	{"S4(mem-thrash)", 0.05},
	{"S5(machine-unavail)", 0.10},
}

const (
	// registryTTL is large, so the fleet stays alive across slow CI phases.
	registryTTL = 30 * time.Second
	// A forecast query asks one shard for forecastNames of its nodes over
	// forecastHorizon of wall time. forecastScale maps one wall millisecond
	// to one virtual minute, so a multi-second run spans virtual days of
	// fleet history and the horizon is one virtual hour.
	forecastNames   = 64
	forecastScale   = 60_000
	forecastHorizon = 60 * time.Millisecond
)

// stateProb pairs an availability state label with its stationary
// probability.
type stateProb struct {
	state string
	p     float64
}

func drawState(rng *rand.Rand, dist []stateProb) string {
	u := rng.Float64()
	acc := 0.0
	for _, s := range dist {
		acc += s.p
		if u < acc {
			return s.state
		}
	}
	return dist[len(dist)-1].state
}

// stateDistribution resolves the distribution fleet states are drawn
// from: the paper's empirical occupancy by default, or the renewal-reward
// stationary distribution of a markov scenario model when scenario names
// one.
func stateDistribution(scenario string) ([]stateProb, error) {
	if scenario == "" {
		return paperStates, nil
	}
	d, err := markov.ScenarioStateDistribution(scenario)
	if err != nil {
		return nil, err
	}
	dist := make([]stateProb, len(paperStates))
	for i, s := range paperStates {
		dist[i] = stateProb{state: s.state, p: d[i]}
	}
	return dist, nil
}

// LatencyStats summarizes one operation class from its raw samples.
type LatencyStats struct {
	Ops       int           `json:"ops"`
	P50       time.Duration `json:"p50_ns"`
	P90       time.Duration `json:"p90_ns"`
	P99       time.Duration `json:"p99_ns"`
	Max       time.Duration `json:"max_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`
}

func summarize(samples []time.Duration, wall time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := func(p float64) time.Duration {
		i := int(p*float64(len(samples)-1) + 0.5)
		return samples[i]
	}
	s := LatencyStats{
		Ops: len(samples),
		P50: q(0.50), P90: q(0.90), P99: q(0.99),
		Max: samples[len(samples)-1],
	}
	if wall > 0 {
		s.OpsPerSec = float64(len(samples)) / wall.Seconds()
	}
	return s
}

// Result is the outcome of one load run.
type Result struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards"`
	// Register and Heartbeat are per-batch-request latencies; Discover is
	// per fan-out Candidates call over all shards.
	Register  LatencyStats `json:"register"`
	Heartbeat LatencyStats `json:"heartbeat"`
	Discover  LatencyStats `json:"discover"`
	// PartitionDiscover is the discovery phase repeated with one shard
	// partitioned (nil when the phase is disabled).
	PartitionDiscover *LatencyStats `json:"partition_discover,omitempty"`
	// Candidates is the fewest candidates a healthy discovery returned.
	Candidates int `json:"candidates"`
	// PartitionCandidates is the fewest with the shard cut off — nonzero
	// proves the stale-cache path kept the lost shard's slice every time.
	PartitionCandidates int `json:"partition_candidates,omitempty"`
	// Forecast is the per-query latency of the forecast phase (nil when
	// the phase is disabled); ForecastKnown is the fewest nodes a query
	// returned known forecasts for.
	Forecast      *LatencyStats `json:"forecast,omitempty"`
	ForecastKnown int           `json:"forecast_known,omitempty"`
	// StaleServes/ShardErrors snapshot the broker's recovery counters
	// after the partition phase.
	StaleServes int `json:"stale_serves"`
	ShardErrors int `json:"shard_errors"`
	// CrashDiscover is the discovery phase repeated with one shard
	// SIGKILL-crashed and a breaker-armed broker (nil when disabled).
	CrashDiscover *LatencyStats `json:"crash_discover,omitempty"`
	// CrashCandidates is the fewest candidates during the outage — the
	// dead shard's slice comes from the stale cache.
	CrashCandidates int `json:"crash_candidates,omitempty"`
	// RecoverySeconds is how long the crashed shard took from restart to
	// serving its WAL-recovered state again.
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// RecoveredNodes is how many fleet members the restarted shard served
	// immediately after recovery, before any re-registration.
	RecoveredNodes int `json:"recovered_nodes,omitempty"`
	// BreakerOpens/BreakerShortCircuits snapshot the crash broker's
	// circuit-breaker counters after the crash phase.
	BreakerOpens         int `json:"breaker_opens,omitempty"`
	BreakerShortCircuits int `json:"breaker_short_circuits,omitempty"`
	// Violations lists every SLO the run missed (empty = pass).
	Violations []string `json:"violations,omitempty"`
}

// simNode is one simulated fleet member: protocol-level only, no listener.
type simNode struct {
	name  string
	addr  string
	state string
	load  float64
	gen   int64
	shard int
}

// run is one load run's registry, fleet and clients, shared by its phases.
type run struct {
	ctx      context.Context
	cfg      Config
	sharded  *ishare.ShardedRegistry
	addrs    []string
	inj      *chaos.Injector
	client   *ishare.Client
	rng      *rand.Rand
	dist     []stateProb
	fleet    []*simNode
	perShard [][]*simNode // each shard's members
	batches  [][]*simNode // shard-routed register/heartbeat batches
}

// Run executes one load run against a freshly started in-process sharded
// registry: register the fleet in batches, sweep heartbeats with state
// churn and measure ranked fan-out discovery, then run each enabled phase
// — batched forecast queries, discovery with shard 0 partitioned, and
// shard 0 crashed and restarted from its WAL. It returns the measured
// result; SLO violations are reported in Result.Violations, not as an
// error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	dist, err := stateDistribution(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg.CrashRestart && cfg.WALDir == "" {
		dir, err := os.MkdirTemp("", "loadgen-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}
	regOpt := ishare.RegistryOptions{TTL: registryTTL, MaxInflight: cfg.MaxInflight}
	if cfg.WALDir != "" {
		regOpt.WAL = &ishare.WALOptions{Dir: cfg.WALDir}
	}
	if cfg.ForecastOps > 0 {
		regOpt.Forecast = &ishare.ForecastOptions{Scale: forecastScale}
	}
	sharded, err := ishare.NewShardedRegistryWithOptions(cfg.Shards, regOpt)
	if err != nil {
		return nil, err
	}
	defer sharded.Close()
	r := &run{ctx: ctx, cfg: cfg, sharded: sharded, addrs: sharded.Addrs(),
		inj: chaos.New(cfg.Seed), rng: rand.New(rand.NewSource(cfg.Seed)), dist: dist,
		fleet: make([]*simNode, cfg.Nodes), perShard: make([][]*simNode, cfg.Shards)}
	r.client = &ishare.Client{Shards: r.addrs, Dialer: r.inj, Timeout: 10 * time.Second}

	// Build the fleet: names, fake addresses (these nodes are never
	// dialed — digest ranking is the whole point), states drawn from the
	// paper's occupancy or the configured scenario model. Group it into
	// shard-routed batches once; every sweep reuses the grouping.
	for i := range r.fleet {
		n := &simNode{
			name:  fmt.Sprintf("sim-%07d", i),
			addr:  fmt.Sprintf("10.%d.%d.%d:7", i>>16&0xff, i>>8&0xff, i&0xff),
			state: drawState(r.rng, dist),
			load:  r.rng.Float64(),
			gen:   1,
		}
		n.shard = sharded.Owner(n.name)
		r.fleet[i] = n
		r.perShard[n.shard] = append(r.perShard[n.shard], n)
	}
	for _, nodes := range r.perShard {
		for off := 0; off < len(nodes); off += cfg.BatchSize {
			r.batches = append(r.batches, nodes[off:min(off+cfg.BatchSize, len(nodes))])
		}
	}

	res := &Result{Nodes: cfg.Nodes, Shards: cfg.Shards}
	for _, p := range []struct {
		on  bool
		run func(*Result) error
	}{
		{true, r.register}, {true, r.heartbeat}, {true, r.discover},
		{cfg.ForecastOps > 0, r.forecast}, {cfg.Partition, r.partition}, {cfg.CrashRestart, r.crash},
	} {
		if !p.on {
			continue
		}
		if err := p.run(res); err != nil {
			return nil, err
		}
	}
	res.Violations = cfg.SLO.check(res)
	return res, nil
}

// timed runs len(samples) ops on the run's workers, times each into its
// slot, and summarizes the samples over the call's wall time. The first op
// error stops the phase.
func (r *run) timed(samples []time.Duration, op func(i int) error) (LatencyStats, error) {
	start := time.Now()
	err := par.For(len(samples), r.cfg.Concurrency, func(_ *struct{}, i int) error {
		t0 := time.Now()
		if err := op(i); err != nil {
			return err
		}
		samples[i] = time.Since(t0)
		return nil
	})
	return summarize(samples, time.Since(start)), err
}

// sweep sends every batch's current digests to the batch's shard: as
// registrations, addresses included, when register is set, else as
// heartbeats, which must find every node known to its shard.
func (r *run) sweep(samples []time.Duration, register bool) (LatencyStats, error) {
	return r.timed(samples, func(i int) error {
		batch := r.batches[i]
		ds := make([]ishare.NodeDigest, len(batch))
		now := time.Now().UnixMilli()
		for j, n := range batch {
			ds[j] = ishare.NodeDigest{Name: n.name, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
			if register {
				ds[j].Addr = n.addr
			}
		}
		addr, what := r.addrs[batch[0].shard], "heartbeat"
		var missing []string
		var err error
		if register {
			what, err = "register", r.client.RegisterBatch(r.ctx, addr, ds)
		} else if missing, err = r.client.HeartbeatBatch(r.ctx, addr, ds); err == nil && len(missing) > 0 {
			err = fmt.Errorf("%d registered nodes unknown to their shard", len(missing))
		}
		if err != nil {
			return fmt.Errorf("loadgen: %s batch %d: %w", what, i, err)
		}
		return nil
	})
}

// register registers the whole fleet.
func (r *run) register(res *Result) (err error) {
	res.Register, err = r.sweep(make([]time.Duration, len(r.batches)), true)
	return err
}

// heartbeat runs HeartbeatRounds sweeps, each after re-drawing the states
// of a churn fraction of the fleet.
func (r *run) heartbeat(res *Result) error {
	nb := len(r.batches)
	samples := make([]time.Duration, r.cfg.HeartbeatRounds*nb)
	start := time.Now()
	for k := 0; k < r.cfg.HeartbeatRounds; k++ {
		for c := int(r.cfg.ChurnFraction * float64(r.cfg.Nodes)); c > 0; c-- {
			n := r.fleet[r.rng.Intn(len(r.fleet))]
			if s := drawState(r.rng, r.dist); s != n.state {
				n.state = s
				n.load = r.rng.Float64()
				n.gen++
			}
		}
		if _, err := r.sweep(samples[k*nb:(k+1)*nb], false); err != nil {
			return err
		}
	}
	res.Heartbeat = summarize(samples, time.Since(start))
	return nil
}

// measureDiscovery times DiscoverOps fan-out discoveries through b and
// returns the fewest candidates any of them saw, failing if that is none.
func (r *run) measureDiscovery(what string, b *ishare.Broker) (LatencyStats, int, error) {
	cands := make([]int, r.cfg.DiscoverOps)
	stats, err := r.timed(make([]time.Duration, r.cfg.DiscoverOps), func(i int) error {
		cs, err := b.Candidates(r.ctx)
		if err != nil {
			return fmt.Errorf("loadgen: %s %d: %w", what, i, err)
		}
		cands[i] = len(cs)
		return nil
	})
	least := slices.Min(cands)
	if err == nil && least == 0 {
		err = fmt.Errorf("loadgen: %s returned no candidates from a %d-node fleet", what, r.cfg.Nodes)
	}
	return stats, least, err
}

// discover measures ranked fan-out discovery, the latency that bounds
// every placement decision.
func (r *run) discover(res *Result) (err error) {
	b := &ishare.Broker{Client: r.client, CacheTTL: time.Minute}
	res.Discover, res.Candidates, err = r.measureDiscovery("discovery", b)
	return err
}

// forecast measures batched forecast queries. Every shard's online
// forecaster has been fed the fleet's digest transitions by the register
// and heartbeat phases; each query asks one shard for horizon survival
// forecasts of forecastNames of its own nodes, walking round the shard.
func (r *run) forecast(res *Result) error {
	known := make([]int, r.cfg.ForecastOps)
	stats, err := r.timed(make([]time.Duration, r.cfg.ForecastOps), func(i int) error {
		nodes := r.perShard[r.batches[i%len(r.batches)][0].shard] // a batch's shard owns nodes
		names := make([]string, min(forecastNames, len(nodes)))
		for k := range names {
			names[k] = nodes[(i*forecastNames+k)%len(nodes)].name
		}
		infos, err := r.client.Forecast(r.ctx, r.addrs[nodes[0].shard], names, forecastHorizon)
		if err != nil {
			return fmt.Errorf("loadgen: forecast query %d: %w", i, err)
		}
		for _, fi := range infos {
			if fi.Known {
				known[i]++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.Forecast, res.ForecastKnown = &stats, slices.Min(known)
	if res.ForecastKnown == 0 {
		return fmt.Errorf("loadgen: a forecast query saw no known nodes — digest transitions never reached the forecaster")
	}
	return nil
}

// degraded measures discovery with shard 0 cut off by cut. Its broker's
// client does not retry (retrying into a lost shard buys nothing, and
// latency must stay bounded) and warms every shard's cache first, so the
// lost shard's slice comes from the stale cache. breaker arms the broker's
// circuit breaker (0 = off), which once open stays open for the whole
// outage.
func (r *run) degraded(what string, breaker int, cut func() error) (*ishare.Broker, *LatencyStats, int, error) {
	b := &ishare.Broker{
		Client: &ishare.Client{Shards: r.addrs, Dialer: r.inj, Timeout: 2 * time.Second,
			Retry: ishare.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: r.cfg.Seed}},
		CacheTTL:         time.Minute,
		BreakerThreshold: breaker,
		BreakerCooldown:  30 * time.Second,
	}
	if _, err := b.Candidates(r.ctx); err != nil {
		return nil, nil, 0, fmt.Errorf("loadgen: warming %s broker: %w", what, err)
	}
	if err := cut(); err != nil {
		return nil, nil, 0, fmt.Errorf("loadgen: cutting shard 0 off: %w", err)
	}
	stats, cands, err := r.measureDiscovery(what+" discovery", b)
	return b, &stats, cands, err
}

// partition repeats discovery with shard 0 chaos-partitioned; the broker
// must keep answering from its stale cache.
func (r *run) partition(res *Result) error {
	defer r.inj.Heal(r.addrs[0])
	b, stats, cands, err := r.degraded("partitioned", 0, func() error { r.inj.Partition(r.addrs[0]); return nil })
	if err != nil {
		return err
	}
	bm := b.Metrics()
	res.PartitionDiscover, res.PartitionCandidates = stats, cands
	res.StaleServes, res.ShardErrors = bm.StaleServes, bm.ShardErrors
	if bm.StaleServes == 0 {
		return fmt.Errorf("loadgen: partition phase never hit the stale-cache path")
	}
	return nil
}

// crash kills shard 0 outright — no drain, no final fsync — and measures
// three things: discovery latency through the outage behind a circuit
// breaker, the time from restart back to serving the WAL-recovered state,
// and whether a heartbeat sweep after recovery finds a single acked
// registration missing (it must not: durability is the phase's whole
// claim).
func (r *run) crash(res *Result) error {
	const breakerThreshold = 3
	b, stats, cands, err := r.degraded("during-crash", breakerThreshold, func() error { return r.sharded.CrashShard(0) })
	if err != nil {
		return err
	}
	bm := b.Metrics()
	res.CrashDiscover, res.CrashCandidates = stats, cands
	res.BreakerOpens, res.BreakerShortCircuits = bm.BreakerOpens, bm.BreakerShortCircuits
	// The breaker's counts repeat where tail latencies do not: it opens
	// once, and past the failures that tripped it and the calls then in
	// flight every discovery skips the dead shard.
	if floor := r.cfg.DiscoverOps - breakerThreshold - (r.cfg.Concurrency - 1); floor > 0 &&
		(bm.BreakerOpens != 1 || bm.BreakerShortCircuits < floor) {
		return fmt.Errorf("loadgen: crash phase: breaker opened %d times (want 1) and skipped the dead shard in %d of %d discoveries (want >= %d)",
			bm.BreakerOpens, bm.BreakerShortCircuits, r.cfg.DiscoverOps, floor)
	}

	start := time.Now()
	if err := r.sharded.RestartShard(0); err != nil {
		return fmt.Errorf("loadgen: restarting shard 0: %w", err)
	}
	// Poll until the shard serves again.
	nodes, err := b.Client.ListShard(r.ctx, r.addrs[0], 0)
	for ; err != nil && time.Since(start) < 30*time.Second; nodes, err = b.Client.ListShard(r.ctx, r.addrs[0], 0) {
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("loadgen: shard 0 not serving 30s after restart: %w", err)
	}
	res.RecoverySeconds, res.RecoveredNodes = time.Since(start).Seconds(), len(nodes)
	if len(nodes) == 0 {
		return fmt.Errorf("loadgen: restarted shard 0 recovered no state from its WAL")
	}
	// The re-register herd that isn't: one more heartbeat sweep right
	// after recovery must find no acked registration missing.
	if _, err := r.sweep(make([]time.Duration, len(r.batches)), false); err != nil {
		return fmt.Errorf("loadgen: post-recovery sweep: %w", err)
	}
	return nil
}

// check compares a result against the objectives, returning one line per
// missed SLO.
func (s SLO) check(r *Result) []string {
	var v []string
	add := func(name string, got, want time.Duration) {
		if want > 0 && got > want {
			v = append(v, fmt.Sprintf("%s %v exceeds SLO %v", name, got, want))
		}
	}
	add("register p99", r.Register.P99, s.RegisterP99)
	add("heartbeat p99", r.Heartbeat.P99, s.HeartbeatP99)
	add("discover p50", r.Discover.P50, s.DiscoverP50)
	add("discover p99", r.Discover.P99, s.DiscoverP99)
	if r.Forecast != nil {
		add("forecast p99", r.Forecast.P99, s.ForecastP99)
	}
	if r.PartitionDiscover != nil {
		// The degraded path answers from cache; holding it to the same p99
		// keeps "resilient" from meaning "slow".
		add("partitioned discover p99", r.PartitionDiscover.P99, s.DiscoverP99)
	}
	if r.CrashDiscover != nil {
		if s.Recovery > 0 && r.RecoverySeconds > s.Recovery.Seconds() {
			v = append(v, fmt.Sprintf("crash recovery %.3fs exceeds SLO %v", r.RecoverySeconds, s.Recovery))
		}
		// A dead shard costing a dial timeout a round would miss the healthy
		// bound; the breaker's counts are judged in the phase itself.
		add("during-crash discover p99", r.CrashDiscover.P99, s.DiscoverP99)
	}
	return v
}

// ScalingResult is one row of a shard-scaling sweep.
type ScalingResult struct {
	Shards    int          `json:"shards"`
	Discover  LatencyStats `json:"discover"`
	SpeedupVs float64      `json:"speedup_vs_first"`
}

// RunScaling measures discovery throughput for each shard count on an
// otherwise identical configuration, reporting each row's throughput
// speedup over the first. On multi-core hosts the fan-out path should
// scale discovery throughput close to the shard count; on a single core
// the rows mostly measure protocol overhead (see EXPERIMENTS.md).
func RunScaling(ctx context.Context, cfg Config, shardCounts []int) ([]ScalingResult, error) {
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("loadgen: scaling sweep needs at least one shard count")
	}
	var out []ScalingResult
	for _, n := range shardCounts {
		c := cfg
		c.Shards = n
		c.Partition = false
		c.CrashRestart = false
		res, err := Run(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scaling row %d shards: %w", n, err)
		}
		row := ScalingResult{Shards: n, Discover: res.Discover, SpeedupVs: 1}
		if len(out) > 0 && out[0].Discover.OpsPerSec > 0 {
			row.SpeedupVs = res.Discover.OpsPerSec / out[0].Discover.OpsPerSec
		}
		out = append(out, row)
	}
	return out, nil
}
