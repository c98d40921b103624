package testbed

import (
	"reflect"
	"testing"

	"repro/internal/markov"
)

// TestScenarioTraceGeneratesLegalFleets runs every scenario name through
// ScenarioTrace at a small fleet shape and checks the output is a valid
// trace of the requested shape, deterministic in the seed.
func TestScenarioTraceGeneratesLegalFleets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 4
	cfg.Days = 7
	cfg.Seed = 6
	for _, name := range append(markov.ScenarioNames(), LabFittedScenario) {
		tr, err := ScenarioTrace(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Machines != cfg.Machines {
			t.Errorf("%s: %d machines, want %d", name, tr.Machines, cfg.Machines)
		}
		if len(tr.Events) == 0 {
			t.Errorf("%s: no events", name)
		}
		again, err := ScenarioTrace(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.Events, again.Events) {
			t.Errorf("%s: regeneration differs", name)
		}
	}
	if _, err := ScenarioTrace(cfg, "no-such-scenario"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestLabFittedDiffersFromLibrary checks the bridge actually fits the lab
// rather than falling through to a library scenario: the lab-fitted fleet
// must differ from every hand-built scenario at the same shape and seed.
func TestLabFittedDiffersFromLibrary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 5
	cfg.Seed = 12
	fitted, err := ScenarioTrace(cfg, LabFittedScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range markov.ScenarioNames() {
		lib, err := ScenarioTrace(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(fitted.Events, lib.Events) {
			t.Errorf("lab-fitted fleet identical to %s", name)
		}
	}
}
