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
	"time"

	"repro/internal/markov"
	"repro/internal/obs"
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
	// Partition enables a second discovery phase with PartitionShard
	// chaos-partitioned, exercising the broker's per-shard stale cache.
	Partition bool
	// PartitionShard is the shard index cut off during the partition
	// phase (default 0; only meaningful with Partition set).
	PartitionShard int
	// TTL is the registry heartbeat TTL (default 30 s — large, so the
	// fleet stays alive across slow CI phases).
	TTL time.Duration
	// WALDir, when set, makes the registry durable: each shard WAL-logs
	// acked registrations under this root and recovers them on restart.
	// Required by CrashRestart.
	WALDir string
	// MaxInflight, when positive, arms each shard's admission control:
	// at most this many concurrently served exchanges, a bounded queue
	// behind them, load-shed with a retry-after hint past that.
	MaxInflight int
	// CrashRestart enables a crash-recovery phase: CrashShard is killed
	// (no drain, no fsync), discovery is measured through the outage with
	// a breaker-armed broker, the shard is restarted from its WAL, and
	// the time back to serving plus a zero-loss heartbeat sweep are
	// checked. Needs WALDir and at least 2 shards.
	CrashRestart bool
	// CrashShard is the shard index killed during the crash phase
	// (default 0; only meaningful with CrashRestart set).
	CrashShard int
	// Forecast enables the forecast service phase: every registry shard
	// runs an online forecaster fed by the fleet's digest transitions, and
	// after the heartbeat sweeps the driver measures batched forecast
	// queries against it (see ForecastOps). Virtual time is wall time
	// scaled by ForecastScale.
	Forecast bool
	// ForecastOps is how many batched forecast queries to measure
	// (default 100; only meaningful with Forecast set).
	ForecastOps int
	// ForecastNames is how many node names ride one forecast query
	// (default 64).
	ForecastNames int
	// ForecastScale maps wall milliseconds to virtual time (default
	// 60000: one wall millisecond is one virtual minute, so a multi-second
	// run spans virtual days of fleet history).
	ForecastScale float64
	// ForecastHorizon is the wall-clock horizon of each query (default
	// 60 ms — one virtual hour at the default scale).
	ForecastHorizon time.Duration
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
	// Obs, when set, receives the run's latency histograms
	// (fgcs_loadgen_*_seconds) and fleet gauges. Nil keeps them private.
	Obs *obs.Registry
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
	if c.Shards < 0 {
		return fmt.Errorf("loadgen: shards must not be negative, got %d", c.Shards)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("loadgen: batch size must not be negative, got %d", c.BatchSize)
	}
	if c.ChurnFraction < 0 || c.ChurnFraction > 1 {
		return fmt.Errorf("loadgen: churn fraction must be within [0, 1], got %g", c.ChurnFraction)
	}
	if c.HeartbeatRounds < 0 {
		return fmt.Errorf("loadgen: heartbeat rounds must not be negative, got %d", c.HeartbeatRounds)
	}
	if c.DiscoverOps < 0 {
		return fmt.Errorf("loadgen: discover ops must not be negative, got %d", c.DiscoverOps)
	}
	if c.Concurrency < 0 {
		return fmt.Errorf("loadgen: concurrency must not be negative, got %d", c.Concurrency)
	}
	if c.PartitionShard < 0 {
		return fmt.Errorf("loadgen: partition shard must not be negative, got %d", c.PartitionShard)
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("loadgen: max inflight must not be negative, got %d", c.MaxInflight)
	}
	if c.ForecastOps < 0 || c.ForecastNames < 0 || c.ForecastScale < 0 || c.ForecastHorizon < 0 {
		return fmt.Errorf("loadgen: negative forecast phase parameters")
	}
	if c.CrashShard < 0 {
		return fmt.Errorf("loadgen: crash shard must not be negative, got %d", c.CrashShard)
	}
	if c.Scenario != "" {
		known := false
		for _, name := range markov.ScenarioNames() {
			if name == c.Scenario {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("loadgen: unknown scenario %q (want one of %v)", c.Scenario, markov.ScenarioNames())
		}
	}
	if c.CrashRestart {
		if c.WALDir == "" {
			return fmt.Errorf("loadgen: crash-restart phase needs a WAL dir (a volatile shard cannot recover)")
		}
		shards := c.Shards
		if shards == 0 {
			shards = 1
		}
		if shards < 2 {
			return fmt.Errorf("loadgen: crash-restart needs at least 2 shards so discovery can degrade, got %d", shards)
		}
		if c.CrashShard >= shards {
			return fmt.Errorf("loadgen: crash shard %d out of range for %d shard(s)", c.CrashShard, shards)
		}
	}
	if c.Partition {
		shards := c.Shards
		if shards == 0 {
			shards = 1
		}
		if shards < 2 {
			return fmt.Errorf("loadgen: partitioning needs at least 2 shards so discovery can degrade, got %d", shards)
		}
		if c.PartitionShard >= shards {
			return fmt.Errorf("loadgen: partition shard %d out of range for %d shard(s)", c.PartitionShard, shards)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1000
	}
	if c.HeartbeatRounds == 0 {
		c.HeartbeatRounds = 1
	}
	if c.ChurnFraction == 0 {
		c.ChurnFraction = 0.2
	}
	if c.DiscoverOps == 0 {
		c.DiscoverOps = 200
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.TTL == 0 {
		c.TTL = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ForecastOps == 0 {
		c.ForecastOps = 100
	}
	if c.ForecastNames == 0 {
		c.ForecastNames = 64
	}
	if c.ForecastScale == 0 {
		c.ForecastScale = 60_000
	}
	if c.ForecastHorizon == 0 {
		c.ForecastHorizon = 60 * time.Millisecond
	}
	return c
}
