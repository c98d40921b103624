package testbed

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchmarkRunMachineWeek measures simulating one machine for a week
// through the full monitor/detector pipeline.
func BenchmarkRunMachineWeek(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Machines = 1
	cfg.Days = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFullTestbed is the whole paper-scale simulation: 20 machines
// for 92 days (1840 machine-days), parallel across cores, without and with
// a live obs registry attached — the pair is the observability tax. The
// metric machine-days/s indicates throughput, computed once from the totals
// after the loop (per-iteration reporting would scale the rate by a partial
// elapsed time and overwrite itself every iteration).
func BenchmarkRunFullTestbed(b *testing.B) {
	for _, metrics := range []string{"off", "on"} {
		b.Run("metrics="+metrics, func(b *testing.B) {
			cfg := DefaultConfig()
			if metrics == "on" {
				cfg.Metrics = obs.NewRegistry()
			}
			b.ReportAllocs()
			var machineDays float64
			for i := 0; i < b.N; i++ {
				tr, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				machineDays += tr.MachineDays()
			}
			b.ReportMetric(machineDays/b.Elapsed().Seconds(), "machine-days/s")
		})
	}
}

// BenchmarkRunShardedFleet exercises the sharded fleet runner on a
// CI-sized fleet, collected shard by shard. A year-long fleet (50x365 into
// v2 shards) is timed by bench/'s trace-generate workload; this one is
// small enough for -benchtime 1x smoke runs.
func BenchmarkRunShardedFleet(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Machines = 50
	cfg.Days = 30
	b.ReportAllocs()
	var machineDays float64
	for i := 0; i < b.N; i++ {
		sink := NewCollectSink(cfg)
		if err := RunSharded(cfg, 10, sink); err != nil {
			b.Fatal(err)
		}
		machineDays += sink.Trace.MachineDays()
	}
	b.ReportMetric(machineDays/b.Elapsed().Seconds(), "machine-days/s")
}

// BenchmarkPlanMachine isolates workload generation from sampling.
func BenchmarkPlanMachine(b *testing.B) {
	cfg := DefaultConfig()
	src := benchSource()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planMachine(cfg, src)
	}
}

func benchSource() *rand.Rand {
	return sim.NewSource(99).Stream("bench/plan")
}
