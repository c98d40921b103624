package testbed

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/trace"
)

// LabFittedScenario names the scenario that bridges the simulated student
// lab into the generative model: a pilot testbed run is fitted into a
// semi-Markov model (internal/markov), which then generates the requested
// fleet. The other scenario names come straight from the markov scenario
// library.
const LabFittedScenario = "lab-fitted"

// Pilot shape for LabFittedScenario: large enough that every hour-of-week
// bucket sees events, small enough that the pilot costs far less than the
// fleet it parameterizes.
const (
	pilotMachines = 8
	pilotDays     = 28
)

// ScenarioTrace generates a fleet trace for the named scenario with the
// config's fleet shape (machines, days, seed), its calendar starting on a
// Monday. Markov
// scenario names delegate to the generative library; LabFittedScenario
// first runs a small pilot testbed with the config's workload, fits a
// semi-Markov model from it, and generates the fleet from that model — so
// the output is a model of this testbed rather than a hand-built scenario.
func ScenarioTrace(cfg Config, name string) (*trace.Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gcfg := markov.GenConfig{
		Machines: cfg.Machines,
		Days:     cfg.Days,
		Seed:     cfg.Seed,
	}
	if name != LabFittedScenario {
		return markov.GenerateScenario(name, gcfg)
	}

	pilot := cfg
	pilot.Machines = pilotMachines
	pilot.Days = pilotDays
	pilot.Metrics = nil
	pilot.Parallelism = 1
	src, err := Run(pilot)
	if err != nil {
		return nil, fmt.Errorf("lab-fitted pilot: %w", err)
	}
	model, err := markov.Fit(src, markov.FitOptions{})
	if err != nil {
		return nil, fmt.Errorf("lab-fitted fit: %w", err)
	}
	return markov.Generate(model, gcfg)
}
