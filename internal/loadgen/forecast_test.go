package loadgen

import (
	"testing"
	"time"
)

// TestRunForecastPhaseSLO pins that the forecast p99 objective is wired
// into the violation check.
func TestRunForecastPhaseSLO(t *testing.T) {
	res, err := Run(ctx, Config{
		Nodes: 100, Shards: 1, DiscoverOps: 2, Concurrency: 2, ForecastOps: 3,
		SLO: SLO{ForecastP99: time.Nanosecond}, // impossible on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("impossible forecast SLO not reported as violated")
	}
}

// TestForecastConfigValidation pins the forecast phase's config error.
func TestForecastConfigValidation(t *testing.T) {
	if err := (Config{Nodes: 10, ForecastOps: -1}).Validate(); err == nil {
		t.Error("negative forecast ops accepted")
	}
}
