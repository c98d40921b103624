// Command fgcs-loadtest drives the sharded control plane with a synthetic
// fleet: batched registration, churned digest heartbeats, ranked fan-out
// discovery, and optionally batched forecast queries (-forecast-ops N),
// the same discovery with shard 0 chaos-partitioned (-partition), and
// shard 0 crashed and WAL-restarted (-crash). It prints a latency summary,
// optionally writes the full result as JSON, and exits nonzero when an
// SLO is missed — the CI smoke gate runs it via `make loadtest-smoke`.
// -smoke is a fixed preset: any flag it would ignore, other than -out,
// exits 2 naming it.
//
// Usage:
//
//	fgcs-loadtest -nodes 100000 -shards 4 -partition -crash
//	fgcs-loadtest -smoke
//	fgcs-loadtest -nodes 20000 -scaling 1,4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/loadgen"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 100000, "simulated fleet size")
		shards      = flag.Int("shards", 4, "registry shard count")
		batch       = flag.Int("batch", 1000, "nodes per register/heartbeat batch")
		rounds      = flag.Int("rounds", 1, "full-fleet heartbeat sweeps")
		churn       = flag.Float64("churn", 0.2, "fleet fraction re-drawing availability state per sweep")
		discoverOps = flag.Int("discover-ops", 200, "fan-out discoveries to measure")
		concurrency = flag.Int("concurrency", 8, "parallel driver workers")
		partition   = flag.Bool("partition", false, "add a discovery phase with shard 0 chaos-partitioned")
		crash       = flag.Bool("crash", false, "add a recovery phase: shard 0 SIGKILL-crashed and WAL-restarted")
		walDir      = flag.String("wal-dir", "", "durability root: shards WAL-log acked registrations under it (empty = volatile; -crash then uses a temp dir)")
		maxInflight = flag.Int("max-inflight", 0, "per-shard admission bound on concurrently served exchanges (0 = unbounded)")
		seed        = flag.Int64("seed", 1, "fleet/churn seed")
		scenario    = flag.String("scenario", "", "draw fleet states from this markov scenario model's stationary distribution (enterprise, spot, multicore, container-dense; empty = paper occupancy)")
		scaling     = flag.String("scaling", "", "comma-separated shard counts: run the scaling sweep instead of one load run")
		forecastOps = flag.Int("forecast-ops", 0, "add a phase measuring this many batched forecast queries (0 = off)")
		sloForecast = flag.Duration("slo-forecast-p99", 0, "forecast query p99 objective (0 = ungated)")
		out         = flag.String("out", "", "write the full result JSON here")
		smoke       = flag.Bool("smoke", false, "CI preset: 10k nodes, 2 shards, every phase, SLO gates on")
		sloRegP99   = flag.Duration("slo-register-p99", 0, "register batch p99 objective (0 = ungated)")
		sloHBP99    = flag.Duration("slo-heartbeat-p99", 0, "heartbeat batch p99 objective (0 = ungated)")
		sloDiscP50  = flag.Duration("slo-discover-p50", 0, "discovery p50 objective (0 = ungated)")
		sloDiscP99  = flag.Duration("slo-discover-p99", 0, "discovery p99 objective (0 = ungated)")
		sloRecovery = flag.Duration("slo-recovery", 0, "crash phase: restart-to-serving objective (0 = ungated)")
	)
	cli.Parse()

	cfg := loadgen.Config{
		Nodes: *nodes, Shards: *shards, BatchSize: *batch,
		HeartbeatRounds: *rounds, ChurnFraction: *churn,
		DiscoverOps: *discoverOps, Concurrency: *concurrency,
		Partition: *partition, CrashRestart: *crash, ForecastOps: *forecastOps,
		Seed: *seed, Scenario: *scenario,
		WALDir: *walDir, MaxInflight: *maxInflight,
		SLO: loadgen.SLO{RegisterP99: *sloRegP99, HeartbeatP99: *sloHBP99,
			DiscoverP50: *sloDiscP50, DiscoverP99: *sloDiscP99,
			Recovery: *sloRecovery, ForecastP99: *sloForecast},
	}
	ctx := context.Background()
	var err error
	switch {
	case *smoke:
		cli.RefuseIgnored("-smoke is a preset and", "smoke", "out")
		err = runLoad(ctx, smokeConfig(), *out)
	case *scaling != "":
		err = runScaling(ctx, cfg, *scaling, *out)
	default:
		err = runLoad(ctx, cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgcs-loadtest:", err)
		os.Exit(1)
	}
}

// smokeConfig is the CI gate: a 10k-node fleet over 2 shards, a chaos
// partition of shard 0, and SLOs generous enough for a loaded single-core
// CI runner while still catching order-of-magnitude regressions.
func smokeConfig() loadgen.Config {
	return loadgen.Config{
		Nodes: 10000, Shards: 2, BatchSize: 1000,
		HeartbeatRounds: 2, ChurnFraction: 0.2,
		DiscoverOps: 100,
		Concurrency: 4, Seed: 1,
		Partition: true, CrashRestart: true, ForecastOps: 50,
		SLO: loadgen.SLO{
			RegisterP99:  2 * time.Second,
			HeartbeatP99: 2 * time.Second,
			DiscoverP50:  250 * time.Millisecond,
			DiscoverP99:  1500 * time.Millisecond,
			// The crash-recovery acceptance gate: a killed shard is back to
			// serving its WAL-recovered 5k nodes in under 2 s. During the
			// outage discovery is held to DiscoverP99 above and to the
			// breaker's counts (loadgen's crash phase).
			Recovery: 2 * time.Second,
			// Forecast queries answer from in-memory per-machine rings;
			// even on a loaded runner a batched query stays sub-second.
			ForecastP99: 1500 * time.Millisecond,
		},
	}
}

// runLoad runs one load and prints its summary; a missed SLO is an error.
func runLoad(ctx context.Context, cfg loadgen.Config, out string) error {
	start := time.Now()
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	printResult(res, time.Since(start))
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, "SLO VIOLATION:", v)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("load run missed %d SLO(s)", len(res.Violations))
	}
	return nil
}

func runScaling(ctx context.Context, cfg loadgen.Config, spec, out string) error {
	var counts []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scaling entry %q", f)
		}
		counts = append(counts, n)
	}
	rows, err := loadgen.RunScaling(ctx, cfg, counts)
	if err != nil {
		return err
	}
	fmt.Printf("scaling sweep: %d nodes, %d discoveries/row\n", cfg.Nodes, cfg.DiscoverOps)
	for _, r := range rows {
		fmt.Printf("  %d shard(s): discover p50 %-10v p99 %-10v %8.1f ops/s  speedup %.2fx\n",
			r.Shards, r.Discover.P50, r.Discover.P99, r.Discover.OpsPerSec, r.SpeedupVs)
	}
	if out != "" {
		return writeJSON(out, rows)
	}
	return nil
}

func printResult(res *loadgen.Result, wall time.Duration) {
	fmt.Printf("fleet: %d nodes over %d shard(s), %d candidates discovered (wall %v)\n",
		res.Nodes, res.Shards, res.Candidates, wall.Round(time.Millisecond))
	row := func(name string, s loadgen.LatencyStats) {
		fmt.Printf("  %-22s ops %-6d p50 %-10v p90 %-10v p99 %-10v max %-10v %8.1f ops/s\n",
			name, s.Ops, s.P50, s.P90, s.P99, s.Max, s.OpsPerSec)
	}
	row("register (per batch)", res.Register)
	row("heartbeat (per batch)", res.Heartbeat)
	row("discover (fan-out)", res.Discover)
	if res.Forecast != nil {
		row("forecast (batched)", *res.Forecast)
		fmt.Printf("  forecast phase: at least %d known nodes a query\n", res.ForecastKnown)
	}
	if res.PartitionDiscover != nil {
		row("discover (partitioned)", *res.PartitionDiscover)
		fmt.Printf("  degraded phase: %d candidates, %d stale serves, %d shard errors\n",
			res.PartitionCandidates, res.StaleServes, res.ShardErrors)
	}
	if res.CrashDiscover != nil {
		row("discover (shard dead)", *res.CrashDiscover)
		fmt.Printf("  crash phase: %d candidates during outage, breaker opened %d time(s), %d short circuits\n",
			res.CrashCandidates, res.BreakerOpens, res.BreakerShortCircuits)
		fmt.Printf("  recovery: shard back to serving %d WAL-recovered nodes in %.3fs\n",
			res.RecoveredNodes, res.RecoverySeconds)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
