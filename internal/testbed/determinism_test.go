package testbed

import (
	"testing"

	"repro/internal/availability"
	"repro/internal/trace"
)

// TestRunDeterminism asserts the testbed produces an identical trace and
// identical occupancy on one worker and on four, whatever the host's core
// count, and across repeated runs with the same seed — the guarantee that
// lets the sharded event buffers skip the old global event lock.
func TestRunDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 6
	cfg.Days = 5

	serial := cfg
	serial.Parallelism = 1
	parallel := cfg
	parallel.Parallelism = 4

	trSerial, occSerial, err := RunWithOccupancy(serial)
	if err != nil {
		t.Fatal(err)
	}
	trParallel, occParallel, err := RunWithOccupancy(parallel)
	if err != nil {
		t.Fatal(err)
	}
	trRepeat, occRepeat, err := RunWithOccupancy(parallel)
	if err != nil {
		t.Fatal(err)
	}

	compareRuns(t, "parallelism 1 vs 4", trSerial.Events, trParallel.Events, occSerial, occParallel)
	compareRuns(t, "repeated same-seed run", trParallel.Events, trRepeat.Events, occParallel, occRepeat)
}

func compareRuns(t *testing.T, tag string, evA, evB []trace.Event, occA, occB []Occupancy) {
	t.Helper()
	if len(evA) != len(evB) {
		t.Fatalf("%s: event count %d vs %d", tag, len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("%s: event %d differs: %+v vs %+v", tag, i, evA[i], evB[i])
		}
	}
	if len(occA) != len(occB) {
		t.Fatalf("%s: occupancy count %d vs %d", tag, len(occA), len(occB))
	}
	states := []availability.State{availability.S1, availability.S2, availability.S3, availability.S4, availability.S5}
	for i := range occA {
		for _, st := range states {
			if occA[i].Fraction[st] != occB[i].Fraction[st] {
				t.Fatalf("%s: machine %d occupancy of %v differs: %v vs %v", tag, i, st, occA[i].Fraction[st], occB[i].Fraction[st])
			}
		}
	}
}
