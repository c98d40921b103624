package testbed

import (
	"testing"

	"repro/internal/availability"
)

// TestObservationStreamStopsOnError checks fn's error aborts the walk and
// comes back verbatim.
func TestObservationStreamStopsOnError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 2
	cfg.Seed = 9
	n := 0
	sentinel := errStop{}
	err := ObservationStream(cfg, 0, func(availability.Observation) error {
		n++
		if n == 10 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want the sentinel", err)
	}
	if n != 10 {
		t.Fatalf("fn called %d times after erroring at 10", n)
	}
}

type errStop struct{}

func (errStop) Error() string { return "stop" }
