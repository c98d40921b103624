package gsched

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Jobs: -1, JobWork: [2]time.Duration{time.Hour, time.Hour}},
		{Jobs: 1, JobWork: [2]time.Duration{2 * time.Hour, time.Hour}},
		{Jobs: 1, JobWork: [2]time.Duration{time.Hour, time.Hour}, RetryDelay: -1},
	}
	for i, c := range bad {
		if c.TrainDays == 0 {
			c.TrainDays = 1
		}
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}

// cleanTrace has no events: every job must finish exactly on time.
func TestSimulateOnCleanTrace(t *testing.T) {
	tr := trace.New(sim.Window{End: 40 * sim.Day}, sim.Calendar{}, 4)
	cfg := Config{Jobs: 50, JobWork: [2]time.Duration{time.Hour, 2 * time.Hour}, TrainDays: 7, Seed: 3}
	res, err := Simulate(tr, &RoundRobin{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFailures != 0 || res.WastedWork != 0 {
		t.Errorf("clean trace produced failures: %+v", res)
	}
	if res.Completed+res.Unfinished != 50 {
		t.Errorf("jobs unaccounted: %+v", res)
	}
	if res.MeanSlowdown < 0.99 || res.MeanSlowdown > 1.01 {
		t.Errorf("clean-trace slowdown = %v, want 1.0", res.MeanSlowdown)
	}
}

// hostileMachine: machine 0 fails constantly, machine 1 never.
func hostileTrace() *trace.Trace {
	tr := trace.New(sim.Window{End: 30 * sim.Day}, sim.Calendar{}, 2)
	for d := 0; d < 30; d++ {
		for h := 0; h < 24; h += 2 {
			start := sim.Time(d)*sim.Day + sim.Time(h)*time.Hour
			tr.Add(trace.Event{
				Machine: 0,
				Start:   start,
				End:     start + 10*time.Minute,
				State:   availability.S3,
			})
		}
	}
	tr.Sort()
	return tr
}

func TestPredictiveAvoidsHostileMachine(t *testing.T) {
	tr := hostileTrace()
	cfg := Config{Jobs: 60, JobWork: [2]time.Duration{3 * time.Hour, 4 * time.Hour}, TrainDays: 14, Seed: 5}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(tr.Span.Start + 14*sim.Day)))
	pred, err := Simulate(tr, &Predictive{P: hw}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Simulate(tr, &RoundRobin{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TotalFailures > 0 {
		t.Errorf("predictive policy failed %d times; machine 1 is always free", pred.TotalFailures)
	}
	if rr.TotalFailures == 0 {
		t.Error("round-robin should hit machine 0's failures")
	}
	if !(pred.MeanResponse < rr.MeanResponse) {
		t.Errorf("predictive %v should beat round-robin %v", pred.MeanResponse, rr.MeanResponse)
	}
}

func TestLeastRecentlyFailedLearns(t *testing.T) {
	p := &LeastRecentlyFailed{}
	// First picks cycle machines; after observing a failure on 0, machine
	// 0 is deprioritized.
	first := p.Pick(0, time.Hour, 3)
	p.ObserveFailure(first, time.Hour)
	for i := 0; i < 10; i++ {
		if got := p.Pick(2*time.Hour, time.Hour, 3); got == first {
			t.Fatalf("picked recently failed machine %d", first)
		}
	}
}

func TestCheckpointingReducesWaste(t *testing.T) {
	tr := hostileTrace()
	// Force every job onto the hostile machine with a fixed policy.
	type pinned struct{ RoundRobin }
	pin := &pinned{}
	pin.next = 0
	cfg := Config{Jobs: 30, JobWork: [2]time.Duration{3 * time.Hour, 3 * time.Hour}, TrainDays: 1, Seed: 8}

	cfgNo := cfg
	noCkpt, err := Simulate(tr, &hostileOnly{}, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	cfgCk := cfg
	cfgCk.Checkpoint = 30 * time.Minute
	withCkpt, err := Simulate(tr, &hostileOnly{}, cfgCk)
	if err != nil {
		t.Fatal(err)
	}
	if !(withCkpt.WastedWork < noCkpt.WastedWork) {
		t.Errorf("checkpointing should cut waste: %v vs %v", withCkpt.WastedWork, noCkpt.WastedWork)
	}
	if !(withCkpt.Completed >= noCkpt.Completed) {
		t.Errorf("checkpointing should not finish fewer jobs: %d vs %d", withCkpt.Completed, noCkpt.Completed)
	}
}

// hostileOnly always picks machine 0.
type hostileOnly struct{}

func (hostileOnly) Name() string                                      { return "pin-0" }
func (hostileOnly) Pick(sim.Time, time.Duration, int) trace.MachineID { return 0 }
func (hostileOnly) ObserveFailure(trace.MachineID, sim.Time)          {}

var (
	tbOnce sync.Once
	tbTr   *trace.Trace
	tbErr  error
)

func heterogeneousTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tbOnce.Do(func() {
		cfg := testbed.DefaultConfig()
		cfg.Machines = 10
		cfg.Days = 70
		cfg.Workload.MachineRateSpread = 0.8
		tbTr, tbErr = testbed.Run(cfg)
	})
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbTr
}

// TestProactiveBeatsOblivious is the motivation experiment: predictive
// placement should cut failures and response time versus oblivious
// policies on a heterogeneous testbed.
func TestProactiveBeatsOblivious(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed simulation")
	}
	tr := heterogeneousTrace(t)
	cfg := DefaultConfig()
	cfg.Jobs = 300
	results, err := Compare(tr, DefaultPolicies(tr, cfg, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d policy results, want 4", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		if r.Completed+r.Unfinished != cfg.Jobs {
			t.Errorf("%s: jobs unaccounted: %+v", r.Policy, r)
		}
		byName[r.Policy] = r
	}
	pred := byName["predictive(history-window(trimmed))"]
	rand := byName["random"]
	if pred.Policy == "" || rand.Policy == "" {
		t.Fatalf("missing policies in %+v", results)
	}
	if !(pred.TotalFailures < rand.TotalFailures) {
		t.Errorf("predictive failures %d should beat random %d", pred.TotalFailures, rand.TotalFailures)
	}
	if !(pred.MeanSlowdown < rand.MeanSlowdown) {
		t.Errorf("predictive slowdown %v should beat random %v", pred.MeanSlowdown, rand.MeanSlowdown)
	}
	if s := FormatResults(results); !strings.Contains(s, "predictive") {
		t.Error("FormatResults missing policies")
	}
}

func TestMinResponsePolicyAvoidsHostileMachine(t *testing.T) {
	tr := hostileTrace()
	cfg := Config{Jobs: 40, JobWork: [2]time.Duration{3 * time.Hour, 4 * time.Hour}, TrainDays: 14, Seed: 6}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(tr.Span.Start + 14*sim.Day)))
	pol := &MinResponse{E: &predict.ResponseEstimator{P: hw, Seed: 5, Samples: 60}}
	res, err := Simulate(tr, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFailures > 0 {
		t.Errorf("min-expected-response failed %d times; machine 1 is always clean", res.TotalFailures)
	}
	rr, err := Simulate(tr, &RoundRobin{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MeanResponse < rr.MeanResponse) {
		t.Errorf("min-response %v should beat round-robin %v", res.MeanResponse, rr.MeanResponse)
	}
}
