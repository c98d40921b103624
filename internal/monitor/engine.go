package monitor

import (
	"time"

	"repro/internal/availability"
	"repro/internal/simos"
)

// Engine is the paper's unavailability-detection module (Sections 3 and
// 5) on one simos machine: sample → monitor → five-state detector → guest
// controller. It records nothing; a caller that wants events feeds the
// transitions Step returns to its own trace.Builder. It is not safe for
// concurrent use.
type Engine struct {
	machine *simos.Machine
	sampler *MachineSampler
	mon     *Monitor
	det     *availability.Detector
	ctrl    *availability.Controller // nil without an attached guest
}

// EngineConfig bundles the engine's pieces (zero fields take the usual
// defaults).
type EngineConfig struct {
	// Machine configures the simulated machine.
	Machine simos.MachineConfig
	// Monitor configures sampling (period, smoothing).
	Monitor Config
	// Detector configures the availability model.
	Detector availability.Config
}

// NewEngine builds an engine on a fresh machine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	m, err := simos.NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	mon, err := New(cfg.Monitor)
	if err != nil {
		return nil, err
	}
	det, err := availability.NewDetector(cfg.Detector)
	if err != nil {
		return nil, err
	}
	return &Engine{machine: m, sampler: NewMachineSampler(m), mon: mon, det: det}, nil
}

// Machine exposes the underlying machine for spawning workloads.
func (e *Engine) Machine() *simos.Machine { return e.machine }

// State returns the current availability state.
func (e *Engine) State() availability.State { return e.det.State() }

// AttachGuest puts a running guest process under the paper's management
// policy (renice on S2, suspend on transient spikes, kill on failure).
// Only one guest is managed at a time; attaching replaces the previous
// controller.
func (e *Engine) AttachGuest(p *simos.Process) *availability.Controller {
	e.ctrl = availability.NewController(e.det, p)
	return e.ctrl
}

// DetachGuest stops managing the attached guest; later steps observe
// through the bare detector.
func (e *Engine) DetachGuest() { e.ctrl = nil }

// Step advances the machine by one monitor period and feeds the sample
// through the pipeline. It returns the observation, the resulting state,
// the action taken on the attached guest (ActionNone without one) and the
// transition (nil when the state did not change).
func (e *Engine) Step() (availability.Observation, availability.State, availability.Action, *availability.Transition) {
	e.machine.Run(e.mon.Config().Period)
	obs := e.mon.Observe(e.sampler.Sample())
	if e.ctrl != nil {
		state, action, tr := e.ctrl.Observe(obs)
		return obs, state, action, tr
	}
	state, tr := e.det.Observe(obs)
	return obs, state, availability.ActionNone, tr
}

// RunFor advances the pipeline for the given virtual duration.
func (e *Engine) RunFor(d time.Duration) {
	end := e.machine.Now() + d
	for e.machine.Now() < end {
		e.Step()
	}
}
