package check

import (
	"testing"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func naiveConfig(seed int64) testbed.Config {
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 2
	cfg.Seed = seed
	cfg.Parallelism = 2
	return cfg
}

// TestRunNaiveMatchesRun holds the one runner to the per-period oracle:
// RunNaive, built on the exported testbed.ObservationStream, must reproduce
// testbed.Run exactly — same events, same occupancy fractions — at a fixed
// seed.
func TestRunNaiveMatchesRun(t *testing.T) {
	cfg := naiveConfig(42)
	fast, fastOcc, err := testbed.RunWithOccupancy(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	naive, naiveOcc, err := RunNaive(cfg)
	if err != nil {
		t.Fatalf("RunNaive: %v", err)
	}
	if len(fast.Events) != len(naive.Events) {
		t.Fatalf("event counts differ: fast %d, naive %d", len(fast.Events), len(naive.Events))
	}
	for i := range fast.Events {
		if fast.Events[i] != naive.Events[i] {
			t.Fatalf("event %d differs:\nfast  %+v\nnaive %+v", i, fast.Events[i], naive.Events[i])
		}
	}
	for i := range fastOcc {
		for _, st := range []availability.State{availability.S1, availability.S2, availability.S3, availability.S4, availability.S5} {
			if fastOcc[i].Fraction[st] != naiveOcc[i].Fraction[st] {
				t.Errorf("machine %d occupancy %v differs: fast %v, naive %v",
					i, st, fastOcc[i].Fraction[st], naiveOcc[i].Fraction[st])
			}
		}
	}
}

// TestObservationStreamDrivesDetector verifies the exported stream carries
// exactly the observations the pipeline consumed: replaying it through a
// fresh Detector and Builder rebuilds machine 0's slice of the RunNaive
// trace.
func TestObservationStreamDrivesDetector(t *testing.T) {
	cfg := naiveConfig(7)
	naive, _, err := RunNaive(cfg)
	if err != nil {
		t.Fatalf("RunNaive: %v", err)
	}
	var want []trace.Event
	for _, e := range naive.Events {
		if e.Machine == 0 {
			want = append(want, e)
		}
	}

	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		t.Fatal(err)
	}
	builder := trace.NewBuilder(0)
	var got []trace.Event
	n := 0
	err = testbed.ObservationStream(cfg, 0, func(obs availability.Observation) error {
		n++
		_, tr := det.Observe(obs)
		if tr != nil {
			if ev := builder.OnTransition(*tr); ev != nil {
				got = append(got, *ev)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("testbed.ObservationStream: %v", err)
	}
	if n == 0 {
		t.Fatal("stream yielded no observations")
	}
	if ev := builder.Flush(sim.Time(cfg.Days) * sim.Day); ev != nil {
		got = append(got, *ev)
	}
	if len(got) != len(want) {
		t.Fatalf("replay produced %d events, trace has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs:\nreplay %+v\ntrace  %+v", i, got[i], want[i])
		}
	}
}
