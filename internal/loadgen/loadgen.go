package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/ishare"
	"repro/internal/markov"
	"repro/internal/obs"
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
	// Candidates is the candidate count of the last healthy discovery.
	Candidates int `json:"candidates"`
	// PartitionCandidates is the candidate count with the shard cut off —
	// nonzero proves the stale-cache path kept the lost shard's slice.
	PartitionCandidates int `json:"partition_candidates,omitempty"`
	// Forecast is the per-query latency of the forecast phase (zero when
	// the phase is disabled); ForecastKnown counts nodes the last query
	// returned known forecasts for.
	Forecast      LatencyStats `json:"forecast,omitempty"`
	ForecastKnown int          `json:"forecast_known,omitempty"`
	// StaleServes/ShardErrors/GossipServes snapshot the broker's recovery
	// counters after the partition phase.
	StaleServes  int `json:"stale_serves"`
	ShardErrors  int `json:"shard_errors"`
	GossipServes int `json:"gossip_serves"`
	// CrashDiscover is the discovery phase repeated with one shard
	// SIGKILL-crashed and a breaker-armed broker (nil when disabled).
	CrashDiscover *LatencyStats `json:"crash_discover,omitempty"`
	// CrashCandidates is the candidate count during the outage — the
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

// runMetrics are the obs-exported histograms of a run.
type runMetrics struct {
	register  *obs.Histogram
	heartbeat *obs.Histogram
	discover  *obs.Histogram
	forecast  *obs.Histogram
	fleet     *obs.Gauge
}

func newRunMetrics(r *obs.Registry) *runMetrics {
	buckets := obs.ExpBuckets(0.0005, 2, 14) // 0.5 ms .. ~4 s
	return &runMetrics{
		register:  r.Histogram("fgcs_loadgen_register_seconds", "latency of one register_batch request", buckets),
		heartbeat: r.Histogram("fgcs_loadgen_heartbeat_seconds", "latency of one heartbeat_batch request", buckets),
		discover:  r.Histogram("fgcs_loadgen_discover_seconds", "latency of one fan-out discovery", buckets),
		forecast:  r.Histogram("fgcs_loadgen_forecast_seconds", "latency of one batched forecast query", buckets),
		fleet:     r.Gauge("fgcs_loadgen_fleet_nodes", "simulated nodes registered by the driver"),
	}
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

// Run executes one load run against a freshly started in-process sharded
// registry: register the fleet in batches, sweep heartbeats with state
// churn, measure ranked fan-out discovery, and (optionally) repeat
// discovery with one shard partitioned. It returns the measured result;
// SLO violations are reported in Result.Violations, not as an error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newRunMetrics(reg)

	regOpt := ishare.RegistryOptions{TTL: cfg.TTL, MaxInflight: cfg.MaxInflight}
	if cfg.WALDir != "" {
		regOpt.WAL = &ishare.WALOptions{Dir: cfg.WALDir}
	}
	if cfg.Forecast {
		regOpt.Forecast = &ishare.ForecastOptions{Scale: cfg.ForecastScale}
	}
	sharded, err := ishare.NewShardedRegistryWithOptions(cfg.Shards, regOpt)
	if err != nil {
		return nil, err
	}
	defer sharded.Close()
	addrs := sharded.Addrs()
	inj := chaos.New(cfg.Seed)

	// Build the fleet: names, fake addresses (these nodes are never
	// dialed — digest ranking is the whole point), states drawn from the
	// paper's occupancy or the configured scenario model.
	dist, err := stateDistribution(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fleet := make([]*simNode, cfg.Nodes)
	for i := range fleet {
		fleet[i] = &simNode{
			name:  fmt.Sprintf("sim-%07d", i),
			addr:  fmt.Sprintf("10.%d.%d.%d:7", i>>16&0xff, i>>8&0xff, i&0xff),
			state: drawState(rng, dist),
			load:  rng.Float64(),
			gen:   1,
		}
		fleet[i].shard = sharded.Owner(fleet[i].name)
	}

	// Group into shard-routed batches once; register and heartbeat reuse
	// the grouping.
	var batches [][]*simNode
	perShard := make([][]*simNode, cfg.Shards)
	for _, n := range fleet {
		perShard[n.shard] = append(perShard[n.shard], n)
	}
	for _, nodes := range perShard {
		for off := 0; off < len(nodes); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > len(nodes) {
				end = len(nodes)
			}
			batches = append(batches, nodes[off:end])
		}
	}

	client := &ishare.Client{Shards: addrs, Dialer: inj, Timeout: 10 * time.Second}
	result := &Result{Nodes: cfg.Nodes, Shards: cfg.Shards}

	// Phase 1: register the fleet.
	regSamples := make([]time.Duration, len(batches))
	regStart := time.Now()
	err = par.For(len(batches), cfg.Concurrency, func(_ *struct{}, i int) error {
		batch := batches[i]
		ds := make([]ishare.NodeDigest, len(batch))
		now := time.Now().UnixMilli()
		for j, n := range batch {
			ds[j] = ishare.NodeDigest{Name: n.name, Addr: n.addr, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
		}
		t0 := time.Now()
		if err := client.RegisterBatch(ctx, addrs[batch[0].shard], ds); err != nil {
			return fmt.Errorf("loadgen: register batch %d: %w", i, err)
		}
		regSamples[i] = time.Since(t0)
		met.register.Observe(regSamples[i].Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	met.fleet.Set(float64(cfg.Nodes))
	result.Register = summarize(regSamples, time.Since(regStart))

	// Phase 2: heartbeat sweeps with availability churn.
	var hbSamples []time.Duration
	hbStart := time.Now()
	for round := 0; round < cfg.HeartbeatRounds; round++ {
		churn := int(cfg.ChurnFraction * float64(cfg.Nodes))
		for k := 0; k < churn; k++ {
			n := fleet[rng.Intn(len(fleet))]
			if s := drawState(rng, dist); s != n.state {
				n.state = s
				n.load = rng.Float64()
				n.gen++
			}
		}
		roundSamples := make([]time.Duration, len(batches))
		err := par.For(len(batches), cfg.Concurrency, func(_ *struct{}, i int) error {
			batch := batches[i]
			ds := make([]ishare.NodeDigest, len(batch))
			now := time.Now().UnixMilli()
			for j, n := range batch {
				ds[j] = ishare.NodeDigest{Name: n.name, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
			}
			t0 := time.Now()
			missing, err := client.HeartbeatBatch(ctx, addrs[batch[0].shard], ds)
			if err != nil {
				return fmt.Errorf("loadgen: heartbeat batch %d: %w", i, err)
			}
			if len(missing) > 0 {
				return fmt.Errorf("loadgen: heartbeat batch %d: %d registered nodes unknown to their shard", i, len(missing))
			}
			roundSamples[i] = time.Since(t0)
			met.heartbeat.Observe(roundSamples[i].Seconds())
			return nil
		})
		if err != nil {
			return nil, err
		}
		hbSamples = append(hbSamples, roundSamples...)
	}
	result.Heartbeat = summarize(hbSamples, time.Since(hbStart))

	// Phase 3: ranked fan-out discovery, the latency that bounds every
	// placement decision.
	broker := &ishare.Broker{
		Client:   client,
		CacheTTL: time.Minute,
		Obs:      reg,
	}
	discSamples := make([]time.Duration, cfg.DiscoverOps)
	discStart := time.Now()
	var lastCands int
	var candMu sync.Mutex
	err = par.For(cfg.DiscoverOps, cfg.Concurrency, func(_ *struct{}, i int) error {
		t0 := time.Now()
		cands, err := broker.Candidates(ctx)
		if err != nil {
			return fmt.Errorf("loadgen: discovery %d: %w", i, err)
		}
		discSamples[i] = time.Since(t0)
		met.discover.Observe(discSamples[i].Seconds())
		candMu.Lock()
		lastCands = len(cands)
		candMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	result.Discover = summarize(discSamples, time.Since(discStart))
	result.Candidates = lastCands
	if lastCands == 0 {
		return nil, fmt.Errorf("loadgen: healthy discovery returned no candidates from a %d-node fleet", cfg.Nodes)
	}

	// Phase 3b (optional): batched forecast queries. Every shard's online
	// forecaster has been fed the fleet's digest transitions by the
	// register and heartbeat phases; each query asks one shard for horizon
	// survival forecasts of a slice of its own nodes.
	if cfg.Forecast {
		fcSamples := make([]time.Duration, cfg.ForecastOps)
		fcStart := time.Now()
		var fcKnown int
		var fcMu sync.Mutex
		err := par.For(cfg.ForecastOps, cfg.Concurrency, func(_ *struct{}, i int) error {
			shard := i % cfg.Shards
			nodes := perShard[shard]
			if len(nodes) == 0 {
				return nil
			}
			off := (i * cfg.ForecastNames) % len(nodes)
			end := off + cfg.ForecastNames
			if end > len(nodes) {
				end = len(nodes)
			}
			names := make([]string, 0, end-off)
			for _, n := range nodes[off:end] {
				names = append(names, n.name)
			}
			t0 := time.Now()
			infos, err := client.Forecast(ctx, addrs[shard], names, cfg.ForecastHorizon)
			if err != nil {
				return fmt.Errorf("loadgen: forecast query %d: %w", i, err)
			}
			fcSamples[i] = time.Since(t0)
			met.forecast.Observe(fcSamples[i].Seconds())
			known := 0
			for _, fi := range infos {
				if fi.Known {
					known++
				}
			}
			fcMu.Lock()
			fcKnown = known
			fcMu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		result.Forecast = summarize(fcSamples, time.Since(fcStart))
		result.ForecastKnown = fcKnown
		if fcKnown == 0 {
			return nil, fmt.Errorf("loadgen: forecast phase saw no known nodes — digest transitions never reached the forecaster")
		}
	}

	// Phase 4 (optional): the same discovery load with one shard cut off.
	// The broker must keep answering — the lost shard's slice comes from
	// its stale cache — and latency must stay bounded, which requires a
	// no-retry client (retrying into a partition buys nothing).
	if cfg.Partition {
		partClient := &ishare.Client{Shards: addrs, Dialer: inj, Timeout: 2 * time.Second,
			Retry: ishare.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: cfg.Seed}}
		partBroker := &ishare.Broker{
			Client:   partClient,
			CacheTTL: time.Minute,
			Obs:      reg,
		}
		// Warm every shard's cache, then cut one off.
		if _, err := partBroker.Candidates(ctx); err != nil {
			return nil, fmt.Errorf("loadgen: warming partition broker: %w", err)
		}
		inj.Partition(addrs[cfg.PartitionShard])
		partSamples := make([]time.Duration, cfg.DiscoverOps)
		partStart := time.Now()
		var partCands int
		err := par.For(cfg.DiscoverOps, cfg.Concurrency, func(_ *struct{}, i int) error {
			t0 := time.Now()
			cands, err := partBroker.Candidates(ctx)
			if err != nil {
				return fmt.Errorf("loadgen: partitioned discovery %d: %w", i, err)
			}
			partSamples[i] = time.Since(t0)
			met.discover.Observe(partSamples[i].Seconds())
			candMu.Lock()
			partCands = len(cands)
			candMu.Unlock()
			return nil
		})
		inj.Heal(addrs[cfg.PartitionShard])
		if err != nil {
			return nil, err
		}
		ps := summarize(partSamples, time.Since(partStart))
		result.PartitionDiscover = &ps
		result.PartitionCandidates = partCands
		if partCands == 0 {
			return nil, fmt.Errorf("loadgen: partitioned discovery returned no candidates (stale cache failed)")
		}
		bm := partBroker.Metrics()
		result.StaleServes = bm.StaleServes
		result.ShardErrors = bm.ShardErrors
		result.GossipServes = bm.GossipServes
		if bm.StaleServes == 0 {
			return nil, fmt.Errorf("loadgen: partition phase never hit the stale-cache path")
		}
	}

	// Phase 5 (optional): crash recovery. Kill one shard outright — no
	// drain, no final fsync — and measure three things: discovery latency
	// through the outage behind a circuit breaker, the time from restart
	// back to serving the WAL-recovered state, and whether a full
	// heartbeat sweep after recovery finds a single acked registration
	// missing (it must not: durability is the phase's whole claim).
	if cfg.CrashRestart {
		const breakerThreshold = 3
		crashClient := &ishare.Client{Shards: addrs, Dialer: inj, Timeout: 2 * time.Second,
			Retry: ishare.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: cfg.Seed}}
		crashBroker := &ishare.Broker{
			Client:           crashClient,
			CacheTTL:         time.Minute,
			BreakerThreshold: breakerThreshold,
			BreakerCooldown:  30 * time.Second, // stays open for the whole outage
			Obs:              reg,
		}
		if _, err := crashBroker.Candidates(ctx); err != nil {
			return nil, fmt.Errorf("loadgen: warming crash broker: %w", err)
		}
		if err := sharded.CrashShard(cfg.CrashShard); err != nil {
			return nil, fmt.Errorf("loadgen: crashing shard %d: %w", cfg.CrashShard, err)
		}
		crashSamples := make([]time.Duration, cfg.DiscoverOps)
		crashStart := time.Now()
		var crashCands int
		err := par.For(cfg.DiscoverOps, cfg.Concurrency, func(_ *struct{}, i int) error {
			t0 := time.Now()
			cands, err := crashBroker.Candidates(ctx)
			if err != nil {
				return fmt.Errorf("loadgen: during-crash discovery %d: %w", i, err)
			}
			crashSamples[i] = time.Since(t0)
			met.discover.Observe(crashSamples[i].Seconds())
			candMu.Lock()
			crashCands = len(cands)
			candMu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
		cs := summarize(crashSamples, time.Since(crashStart))
		result.CrashDiscover = &cs
		result.CrashCandidates = crashCands
		if crashCands == 0 {
			return nil, fmt.Errorf("loadgen: during-crash discovery returned no candidates (stale cache failed)")
		}
		bm := crashBroker.Metrics()
		result.BreakerOpens = bm.BreakerOpens
		result.BreakerShortCircuits = bm.BreakerShortCircuits
		// The breaker's counts repeat where tail latencies do not: it opens
		// once, and past the failures that tripped it and the calls then in
		// flight every discovery skips the dead shard.
		if floor := cfg.DiscoverOps - breakerThreshold - (cfg.Concurrency - 1); floor > 0 &&
			(bm.BreakerOpens != 1 || bm.BreakerShortCircuits < floor) {
			return nil, fmt.Errorf("loadgen: crash phase: breaker opened %d times (want 1) and skipped the dead shard in %d of %d discoveries (want >= %d)",
				bm.BreakerOpens, bm.BreakerShortCircuits, cfg.DiscoverOps, floor)
		}

		// Restart and poll until the shard serves again.
		recoverStart := time.Now()
		if err := sharded.RestartShard(cfg.CrashShard); err != nil {
			return nil, fmt.Errorf("loadgen: restarting shard %d: %w", cfg.CrashShard, err)
		}
		recovered := -1
		for time.Since(recoverStart) < 30*time.Second {
			nodes, err := crashClient.ListShard(ctx, addrs[cfg.CrashShard], 0)
			if err == nil {
				recovered = len(nodes)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if recovered < 0 {
			return nil, fmt.Errorf("loadgen: shard %d not serving 30s after restart", cfg.CrashShard)
		}
		result.RecoverySeconds = time.Since(recoverStart).Seconds()
		result.RecoveredNodes = recovered
		if recovered == 0 {
			return nil, fmt.Errorf("loadgen: restarted shard %d recovered no state from its WAL", cfg.CrashShard)
		}

		// The re-register herd that isn't: a full heartbeat sweep right
		// after recovery must find zero acked registrations missing.
		err = par.For(len(batches), cfg.Concurrency, func(_ *struct{}, i int) error {
			batch := batches[i]
			ds := make([]ishare.NodeDigest, len(batch))
			now := time.Now().UnixMilli()
			for j, n := range batch {
				ds[j] = ishare.NodeDigest{Name: n.name, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
			}
			missing, err := client.HeartbeatBatch(ctx, addrs[batch[0].shard], ds)
			if err != nil {
				return fmt.Errorf("loadgen: post-recovery heartbeat batch %d: %w", i, err)
			}
			if len(missing) > 0 {
				return fmt.Errorf("loadgen: post-recovery heartbeat batch %d: shard lost %d acked registrations", i, len(missing))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	result.Violations = cfg.SLO.check(result)
	return result, nil
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
	add("forecast p99", r.Forecast.P99, s.ForecastP99)
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
		c.Obs = nil // fresh private registry per row: histograms must not mix
		res, err := Run(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scaling row %d shards: %w", n, err)
		}
		row := ScalingResult{Shards: n, Discover: res.Discover}
		if len(out) > 0 && out[0].Discover.OpsPerSec > 0 {
			row.SpeedupVs = res.Discover.OpsPerSec / out[0].Discover.OpsPerSec
		} else {
			row.SpeedupVs = 1
		}
		out = append(out, row)
	}
	return out, nil
}
