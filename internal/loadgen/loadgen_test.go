package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

var ctx = context.Background()

func TestDrawStateCoversDistribution(t *testing.T) {
	counts := make(map[string]int)
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	for i := 0; i < n; i++ {
		counts[drawState(rng, paperStates)]++
	}
	for _, s := range paperStates {
		frac := float64(counts[s.state]) / n
		if frac < s.p-0.03 || frac > s.p+0.03 {
			t.Errorf("state %s drawn %.3f, want ~%.2f", s.state, frac, s.p)
		}
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	s := summarize(samples, time.Second)
	if s.Ops != 100 || s.Max != 100*time.Millisecond {
		t.Fatalf("summarize = %+v", s)
	}
	if s.P50 < 49*time.Millisecond || s.P50 > 52*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 < 98*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", s.P99)
	}
	if s.OpsPerSec != 100 {
		t.Errorf("ops/s = %v", s.OpsPerSec)
	}
	if z := summarize(nil, time.Second); z.Ops != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}

// A miniature end-to-end run: every phase (batched registration, churned
// heartbeats, fan-out discovery, forecast queries, partition degradation,
// crash and WAL recovery) against a real 2-shard registry, small enough
// for the race detector.
func TestRunSmallFleet(t *testing.T) {
	const discoverOps = 20
	res, err := Run(ctx, Config{
		Nodes: 2000, Shards: 2, BatchSize: 250,
		HeartbeatRounds: 2, DiscoverOps: discoverOps, Concurrency: 4,
		Partition: true, CrashRestart: true, ForecastOps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Register.Ops == 0 || res.Heartbeat.Ops == 0 || res.Discover.Ops != discoverOps {
		t.Fatalf("phase ops = %+v", res)
	}
	if res.Candidates == 0 {
		t.Fatal("healthy discovery returned no candidates")
	}
	// Every registered node is known to its shard's forecaster, so every
	// query answers all the names it asked for.
	if res.Forecast == nil || res.Forecast.Ops != 10 || res.ForecastKnown != forecastNames {
		t.Fatalf("forecast phase = %+v, known %d; want 10 ops each answering %d known nodes", res.Forecast, res.ForecastKnown, forecastNames)
	}
	if res.PartitionDiscover == nil || res.PartitionCandidates == 0 {
		t.Fatalf("partition phase missing: %+v", res)
	}
	// Every partitioned discovery fails on the cut shard once and answers
	// its slice from the stale cache once.
	if res.StaleServes != discoverOps || res.ShardErrors != discoverOps {
		t.Fatalf("partition metrics: %d stale serves, %d shard errors, want %d each", res.StaleServes, res.ShardErrors, discoverOps)
	}
	// Run fails the crash phase if a registration is missing after
	// recovery, so reaching here means none was.
	if res.CrashDiscover == nil || res.CrashCandidates == 0 || res.BreakerOpens != 1 || res.RecoveredNodes == 0 {
		t.Fatalf("crash phase: %+v, want the breaker opened once and WAL-recovered nodes", res)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("ungated run reported violations: %v", res.Violations)
	}
}

// TestResultOmitsDisabledPhases pins that a phase that did not run leaves
// no key in the result JSON.
func TestResultOmitsDisabledPhases(t *testing.T) {
	res, err := Run(ctx, Config{Nodes: 200, Shards: 1, DiscoverOps: 5, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"forecast", "partition_discover", "crash_discover"} {
		if bytes.Contains(data, []byte(`"`+key+`"`)) {
			t.Errorf("result JSON carries %q for a disabled phase: %s", key, data)
		}
	}
}

func TestRunReportsSLOViolations(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 200, Shards: 1, DiscoverOps: 5, Concurrency: 2,
		SLO: SLO{DiscoverP99: time.Nanosecond}, // impossible on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("impossible SLO not reported as violated")
	}
}

func TestRunScalingRows(t *testing.T) {
	rows, err := RunScaling(ctx, Config{Nodes: 500, DiscoverOps: 10, Concurrency: 2}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Shards != 1 || rows[1].Shards != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].SpeedupVs != 1 || rows[1].SpeedupVs <= 0 {
		t.Fatalf("speedups = %+v", rows)
	}
	if _, err := RunScaling(ctx, Config{Nodes: 10}, nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := Run(ctx, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Run(ctx, Config{Nodes: 10, Scenario: "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestScenarioStateDistribution checks scenario-driven fleets draw from
// the model's stationary occupancy: a proper distribution over the same
// five labels, measurably different from the paper default for a
// low-churn scenario like enterprise.
func TestScenarioStateDistribution(t *testing.T) {
	dist, err := stateDistribution("enterprise")
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(paperStates) {
		t.Fatalf("distribution over %d states, want %d", len(dist), len(paperStates))
	}
	var sum float64
	for i, s := range dist {
		if s.state != paperStates[i].state {
			t.Errorf("state %d label %q, want %q", i, s.state, paperStates[i].state)
		}
		sum += s.p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
	// An enterprise desktop fleet is mostly available — far more S1+S2
	// mass than the paper's 0.75 would leave noticeable, and certainly
	// not identical to the default table.
	if dist[0].p == paperStates[0].p {
		t.Error("scenario distribution identical to paper default")
	}
}

// TestRunScenarioFleet runs the pipeline end to end with a scenario-drawn
// fleet.
func TestRunScenarioFleet(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 300, Shards: 1, DiscoverOps: 5, Concurrency: 2,
		Scenario: "enterprise",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Register.Ops == 0 || res.Discover.Ops != 5 {
		t.Fatalf("phase ops = %+v", res)
	}
}
