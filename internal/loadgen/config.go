// Package loadgen drives the sharded ishare control plane with synthetic
// fleets — hundreds of thousands to a million simulated nodes — and
// measures what the paper's system section only sketches: how discovery,
// registration and heartbeat latencies behave as the fine-grained cycle
// sharing fleet and its registry scale. Nodes are simulated at the
// protocol level (digest batches, not TCP listeners): their availability
// states churn through the paper's five-state model while the registry,
// ring and broker under test are the real production code paths.
package loadgen

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/markov"
)

// Config parameterizes one load run. The zero value is not runnable; see
// Validate. Defaults are applied by Run.
type Config struct {
	// Nodes is the simulated fleet size (required).
	Nodes int
	// Shards is the registry shard count (default 1).
	Shards int
	// BatchSize is how many nodes ride one register/heartbeat batch
	// request (default 1000, capped by protocol message limits).
	BatchSize int
	// HeartbeatRounds is how many full-fleet heartbeat sweeps to run
	// (default 1). Each sweep re-draws availability states for a churn
	// fraction of the fleet first.
	HeartbeatRounds int
	// ChurnFraction is the fraction of the fleet whose availability state
	// is re-drawn (from the paper's stationary state distribution) before
	// each heartbeat round (default 0.2).
	ChurnFraction float64
	// DiscoverOps is how many ranked fan-out discoveries to measure
	// (default 200).
	DiscoverOps int
	// Concurrency bounds the parallel workers driving batches and
	// discoveries (default 8).
	Concurrency int
	// Partition enables a second discovery phase with shard 0
	// chaos-partitioned, exercising the broker's per-shard stale cache.
	// Ring shards are symmetric, so which one is cut does not matter.
	Partition bool
	// WALDir, when set, makes the registry durable: each shard WAL-logs
	// acked registrations under this root and recovers them on restart.
	// The crash phase uses a temporary root, removed afterwards, when it
	// is empty.
	WALDir string
	// MaxInflight, when positive, arms each shard's admission control:
	// at most this many concurrently served exchanges, a bounded queue
	// behind them, load-shed with a retry-after hint past that.
	MaxInflight int
	// CrashRestart enables a crash-recovery phase: shard 0 is killed (no
	// drain, no fsync), discovery is measured through the outage with a
	// breaker-armed broker, the shard is restarted from its WAL, and the
	// time back to serving plus a zero-loss heartbeat sweep are checked.
	// Needs at least 2 shards.
	CrashRestart bool
	// ForecastOps, when positive, enables the forecast service phase:
	// every registry shard runs an online forecaster fed by the fleet's
	// digest transitions, and after the heartbeat sweeps Run measures
	// this many batched forecast queries against it.
	ForecastOps int
	// Scenario, when set, draws fleet availability states from the
	// stationary distribution of the named markov scenario model
	// (internal/markov: enterprise, spot, multicore, container-dense)
	// instead of the paper's empirical occupancy. Churn re-draws from the
	// same distribution.
	Scenario string
	// Seed makes fleet states and churn reproducible (default 1).
	Seed int64
	// SLO holds the latency objectives checked after the run; zero fields
	// are ungated.
	SLO SLO
}

// SLO are the latency objectives of a run. Register and heartbeat
// latencies are per batch request; discovery latencies are per fan-out
// Candidates call. Zero fields are not checked.
type SLO struct {
	RegisterP99  time.Duration
	HeartbeatP99 time.Duration
	DiscoverP50  time.Duration
	DiscoverP99  time.Duration
	// Recovery bounds how long a crashed shard may take from restart to
	// serving its recovered state again (crash phase only).
	Recovery time.Duration
	// ForecastP99 bounds one batched forecast query (forecast phase only).
	ForecastP99 time.Duration
}

// Validate checks the configuration without applying defaults: zero
// means "default", negatives and inconsistencies are errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("loadgen: nodes must be positive, got %d", c.Nodes)
	}
	for _, f := range c.counts() {
		if *f.v < 0 {
			return fmt.Errorf("loadgen: %s must not be negative, got %d", f.name, *f.v)
		}
	}
	if c.ChurnFraction < 0 || c.ChurnFraction > 1 {
		return fmt.Errorf("loadgen: churn fraction must be within [0, 1], got %g", c.ChurnFraction)
	}
	if c.Scenario != "" && !slices.Contains(markov.ScenarioNames(), c.Scenario) {
		return fmt.Errorf("loadgen: unknown scenario %q (want one of %v)", c.Scenario, markov.ScenarioNames())
	}
	if c.Partition && c.Shards < 2 {
		return fmt.Errorf("loadgen: partitioning needs at least 2 shards so discovery can degrade, got %d", max(c.Shards, 1))
	}
	if c.CrashRestart && c.Shards < 2 {
		return fmt.Errorf("loadgen: crash-restart needs at least 2 shards so discovery can degrade, got %d", max(c.Shards, 1))
	}
	return nil
}

// count is an integer Config field: it must not be negative, and zero
// takes def.
type count struct {
	name string
	v    *int
	def  int
}

func (c *Config) counts() []count {
	return []count{
		{"shards", &c.Shards, 1}, {"batch size", &c.BatchSize, 1000}, {"heartbeat rounds", &c.HeartbeatRounds, 1},
		{"discover ops", &c.DiscoverOps, 200}, {"concurrency", &c.Concurrency, 8},
		{"max inflight", &c.MaxInflight, 0}, {"forecast ops", &c.ForecastOps, 0},
	}
}

func (c Config) withDefaults() Config {
	for _, f := range c.counts() {
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	if c.ChurnFraction == 0 {
		c.ChurnFraction = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
