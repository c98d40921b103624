package loadgen

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name        string
		config      Config
		errContains string
	}{
		{
			name:   "MinimalValid",
			config: Config{Nodes: 1},
		},
		{
			name: "FullValid",
			config: Config{Nodes: 100000, Shards: 4, BatchSize: 500, HeartbeatRounds: 3,
				ChurnFraction: 0.5, DiscoverOps: 100, Concurrency: 4, Partition: true, CrashRestart: true, ForecastOps: 10},
		},
		{
			name:        "ZeroNodes",
			config:      Config{},
			errContains: "nodes must be positive",
		},
		{
			name:        "NegativeNodes",
			config:      Config{Nodes: -5},
			errContains: "nodes must be positive",
		},
		{
			name:        "NegativeShards",
			config:      Config{Nodes: 10, Shards: -1},
			errContains: "shards must not be negative",
		},
		{
			name:        "NegativeBatch",
			config:      Config{Nodes: 10, BatchSize: -1},
			errContains: "batch size must not be negative",
		},
		{
			name:        "ChurnAboveOne",
			config:      Config{Nodes: 10, ChurnFraction: 1.5},
			errContains: "churn fraction must be within [0, 1]",
		},
		{
			name:        "NegativeChurn",
			config:      Config{Nodes: 10, ChurnFraction: -0.1},
			errContains: "churn fraction must be within [0, 1]",
		},
		{
			name:        "NegativeRounds",
			config:      Config{Nodes: 10, HeartbeatRounds: -1},
			errContains: "heartbeat rounds must not be negative",
		},
		{
			name:        "NegativeDiscoverOps",
			config:      Config{Nodes: 10, DiscoverOps: -1},
			errContains: "discover ops must not be negative",
		},
		{
			name:        "NegativeConcurrency",
			config:      Config{Nodes: 10, Concurrency: -2},
			errContains: "concurrency must not be negative",
		},
		{
			name:        "PartitionSingleShard",
			config:      Config{Nodes: 10, Partition: true},
			errContains: "partitioning needs at least 2 shards",
		},
		{
			name:        "CrashSingleShard",
			config:      Config{Nodes: 10, Shards: 1, CrashRestart: true},
			errContains: "crash-restart needs at least 2 shards",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.config.Validate()
			if c.errContains == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.errContains) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.errContains)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Nodes: 10}.withDefaults()
	if c.Shards != 1 || c.BatchSize != 1000 || c.HeartbeatRounds != 1 ||
		c.ChurnFraction != 0.2 || c.DiscoverOps != 200 ||
		c.Concurrency != 8 || c.Seed != 1 {
		t.Fatalf("withDefaults() = %+v", c)
	}
}
