// Package fgcs is the public face of this repository: a Go implementation
// of the systems and experiments from "Empirical Studies on the Behavior of
// Resource Availability in Fine-Grained Cycle Sharing Systems" (Ren &
// Eigenmann, ICPP 2006).
//
// It re-exports the pieces a downstream user needs — the five-state
// availability model and detector, the contention experiment harness that
// derives the Th1/Th2 thresholds, the student-lab testbed simulator whose
// traces reproduce the paper's Table 2 and Figures 6-7, the trace analysis
// toolkit, the availability predictors the paper motivates, and the
// proactive guest-job scheduler built on them — behind one import:
//
//	detector := fgcs.NewDetector(fgcs.DetectorConfig{})
//	state, transition := detector.Observe(fgcs.Observation{...})
//
//	tr, _ := fgcs.SimulateTestbed(fgcs.TestbedConfig{})
//	table2 := tr.MakeTable2()
//
//	th, _, _, _ := fgcs.FindThresholds(fgcs.ContentionOptions{})
//
// The implementation lives in internal/ packages (one per subsystem); see
// DESIGN.md for the full inventory and the per-experiment index.
package fgcs

import (
	"repro/internal/availability"
	"repro/internal/contention"
	"repro/internal/gsched"
	"repro/internal/monitor"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// Availability model -------------------------------------------------------

// State is one of the five availability states S1..S5.
type State = availability.State

// The five states of the multi-state availability model (paper Figure 5).
const (
	S1 = availability.S1
	S2 = availability.S2
	S3 = availability.S3
	S4 = availability.S4
	S5 = availability.S5
)

// Thresholds are the empirically derived host-load thresholds (Th1, Th2).
type Thresholds = availability.Thresholds

// DetectorConfig configures the availability detector.
type DetectorConfig = availability.Config

// Observation is one non-intrusive sample of a machine.
type Observation = availability.Observation

// Transition records a detected state change.
type Transition = availability.Transition

// Detector is the five-state availability state machine.
type Detector = availability.Detector

// NewDetector builds a detector; zero config fields take the paper's
// defaults (Linux thresholds, 1-minute transient window). It panics only on
// programmer error (invalid explicit configuration).
func NewDetector(cfg DetectorConfig) *Detector {
	return availability.MustNewDetector(cfg)
}

// LinuxThresholds returns the paper's Linux testbed thresholds
// (Th1 = 20%, Th2 = 60%).
func LinuxThresholds() Thresholds { return availability.LinuxThresholds() }

// Detection engine ---------------------------------------------------------

// Engine is the deployable detection module on one simulated machine:
// sample → monitor → five-state detector → guest controller. It records
// nothing: a caller that wants events feeds the transitions Step returns
// to a trace.Builder, as examples/quickstart does.
type Engine = monitor.Engine

// EngineConfig configures an Engine.
type EngineConfig = monitor.EngineConfig

// NewEngine builds a detection engine on a simulated machine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return monitor.NewEngine(cfg) }

// Contention experiments ----------------------------------------------------

// ContentionOptions configure the Section 3.2 experiment harness.
type ContentionOptions = contention.Options

// FindThresholds runs Figures 1(a) and 1(b) on the simulated machine and
// derives (Th1, Th2), returning both figures for inspection.
func FindThresholds(opt ContentionOptions) (Thresholds, *contention.Figure1Result, *contention.Figure1Result, error) {
	return contention.FindThresholds(opt)
}

// Testbed and traces ---------------------------------------------------------

// TestbedConfig configures the 20-machine, 3-month lab simulation.
type TestbedConfig = testbed.Config

// Trace is a collection of unavailability events over an observation span.
type Trace = trace.Trace

// Event is one occurrence of resource unavailability.
type Event = trace.Event

// MachineID identifies a monitored machine.
type MachineID = trace.MachineID

// SimulateTestbed runs the full testbed simulation and returns its trace.
func SimulateTestbed(cfg TestbedConfig) (*Trace, error) { return testbed.Run(cfg) }

// DefaultTestbedConfig reproduces the paper's testbed (20 machines,
// 92 days).
func DefaultTestbedConfig() TestbedConfig { return testbed.DefaultConfig() }

// Prediction ------------------------------------------------------------------

// Predictor estimates future unavailability from a trained history.
type Predictor = predict.Predictor

// HistoryWindowPredictor is the paper's proposed predictor.
type HistoryWindowPredictor = predict.HistoryWindow

// EvalConfig controls the predictor train/test replay.
type EvalConfig = predict.EvalConfig

// EvaluatePredictors compares predictors on a trace with a train/test
// split.
func EvaluatePredictors(tr *Trace, preds []Predictor, cfg EvalConfig) (*predict.Evaluation, error) {
	return predict.Evaluate(tr, preds, cfg)
}

// DefaultPredictors returns the standard evaluation lineup.
func DefaultPredictors() []Predictor { return predict.DefaultPredictors() }

// LearningCurve measures predictor accuracy versus history length.
func LearningCurve(tr *Trace, mk func() Predictor, trainDays []int, cfg predict.EvalConfig) ([]predict.LearningPoint, error) {
	return predict.LearningCurve(tr, mk, trainDays, cfg)
}

// Proactive scheduling ----------------------------------------------------------

// SchedulingConfig controls the guest-job placement simulation.
type SchedulingConfig = gsched.Config

// SchedulingResult summarizes one placement policy's run.
type SchedulingResult = gsched.Result

// ComparePolicies replays a guest-job stream under the standard policy
// lineup (random, round-robin, least-recently-failed, predictive).
func ComparePolicies(tr *Trace, cfg SchedulingConfig, seed int64) ([]SchedulingResult, error) {
	return gsched.Compare(tr, gsched.DefaultPolicies(tr, cfg, seed), cfg)
}

// MigrationConfig controls proactive mid-job migration.
type MigrationConfig = gsched.MigrationConfig

// SimulateTestbedWithOccupancy also returns per-machine state-occupancy
// fractions (how much time each machine spent in S1..S5).
func SimulateTestbedWithOccupancy(cfg TestbedConfig) (*Trace, []testbed.Occupancy, error) {
	return testbed.RunWithOccupancy(cfg)
}

// EnterpriseTestbedParams returns the enterprise-desktop workload profile
// the paper proposes as its follow-up testbed.
func EnterpriseTestbedParams() testbed.Params { return testbed.EnterpriseParams() }

// Calendar helpers ---------------------------------------------------------------

// Window is a half-open virtual-time interval.
type Window = sim.Window

// DayType classifies weekdays versus weekends.
type DayType = sim.DayType

// Day types.
const (
	Weekday = sim.Weekday
	Weekend = sim.Weekend
)
