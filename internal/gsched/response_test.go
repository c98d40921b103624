package gsched

import (
	"math"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// E19: the min-expected-response placement policy. Response time is the
// paper's performance metric for batch guests; these tests are the
// experiment.

// ResponseEstimator turns a count predictor into an expected-response-time
// estimate for a compute-bound guest job under the paper's failure model
// (a failure kills the job; it restarts from scratch after a delay).
// Response time — not throughput — is the paper's stated performance
// metric for batch guests, and survival probability alone cannot rank
// machines for jobs long enough that failure is near-certain everywhere;
// the expected response can.
//
// The estimator treats unavailability as a nonhomogeneous Poisson process
// whose hourly rate is the predictor's expected count for that hour, and
// averages the restart recursion over deterministic Monte Carlo runs.
type ResponseEstimator struct {
	// P supplies per-window expected failure counts.
	P predict.Predictor
	// Samples is the number of Monte Carlo runs (default 200).
	Samples int
	// RetryDelay is the pause before a restart (default 1 minute).
	RetryDelay time.Duration
	// Horizon caps a single estimate; runs that have not completed by
	// start+Horizon are censored at the horizon (default 14 days).
	Horizon time.Duration
	// Seed makes estimates reproducible.
	Seed int64
}

func (e *ResponseEstimator) samples() int {
	if e.Samples <= 0 {
		return 200
	}
	return e.Samples
}

func (e *ResponseEstimator) retry() time.Duration {
	if e.RetryDelay <= 0 {
		return time.Minute
	}
	return e.RetryDelay
}

func (e *ResponseEstimator) horizon() time.Duration {
	if e.Horizon <= 0 {
		return 14 * sim.Day
	}
	return e.Horizon
}

// Expected estimates the mean response time of a job needing the given
// CPU work, started at start on machine m.
func (e *ResponseEstimator) Expected(m trace.MachineID, start sim.Time, work time.Duration) time.Duration {
	n := e.samples()
	rng := sim.NewSource(e.Seed).Stream("response-estimator")
	var total time.Duration
	for i := 0; i < n; i++ {
		total += e.sampleRun(rng, m, start, work)
	}
	return total / time.Duration(n)
}

// sampleRun simulates one restart trajectory against sampled failures.
func (e *ResponseEstimator) sampleRun(rng interface{ Float64() float64 }, m trace.MachineID, start sim.Time, work time.Duration) time.Duration {
	now := start
	deadline := start + e.horizon()
	for now < deadline {
		fail, failed := e.sampleFailure(rng, m, now, work)
		if !failed {
			end := now + work
			if end > deadline {
				return e.horizon()
			}
			return end - start
		}
		now = fail + e.retry()
	}
	return e.horizon()
}

// sampleFailure draws the first failure within [now, now+work) from the
// predictor's hourly rates (nonhomogeneous Poisson via per-hour thinning),
// returning the failure time and whether one occurred.
func (e *ResponseEstimator) sampleFailure(rng interface{ Float64() float64 }, m trace.MachineID, now sim.Time, work time.Duration) (sim.Time, bool) {
	remaining := work
	t := now
	for remaining > 0 {
		step := time.Hour
		if remaining < step {
			step = remaining
		}
		rate := e.P.PredictCount(m, sim.Window{Start: t, End: t + time.Hour})
		// Probability of at least one failure within this step.
		p := 1 - math.Exp(-rate*float64(step)/float64(time.Hour))
		if rng.Float64() < p {
			// Uniform position within the step.
			return t + time.Duration(rng.Float64()*float64(step)), true
		}
		t += step
		remaining -= step
	}
	return 0, false
}

// MinResponse places each job on the machine with the lowest expected
// response time, using ResponseEstimator. For jobs long enough
// that failure is near-certain everywhere, survival probabilities all
// collapse toward zero and stop ranking machines; expected response still
// does, which is why the paper calls response time the primary metric.
type MinResponse struct {
	E *ResponseEstimator
}

// Name implements Policy.
func (p *MinResponse) Name() string { return "min-expected-response" }

// Pick implements Policy.
func (p *MinResponse) Pick(now sim.Time, work time.Duration, n int) trace.MachineID {
	best := trace.MachineID(0)
	bestT := time.Duration(1<<62 - 1)
	for m := 0; m < n; m++ {
		if t := p.E.Expected(trace.MachineID(m), now, work); t < bestT {
			best, bestT = trace.MachineID(m), t
		}
	}
	return best
}

// ObserveFailure implements Policy.
func (p *MinResponse) ObserveFailure(trace.MachineID, sim.Time) {}

// flatRatePredictor returns a constant hourly failure rate per machine.
type flatRatePredictor struct {
	rates map[trace.MachineID]float64
}

func (f *flatRatePredictor) Name() string                { return "flat" }
func (f *flatRatePredictor) Train(*predict.TraceHistory) {}
func (f *flatRatePredictor) PredictCount(m trace.MachineID, w sim.Window) float64 {
	return f.rates[m] * w.Duration().Hours()
}
func (f *flatRatePredictor) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	return 1
}

func TestResponseEstimatorCleanMachine(t *testing.T) {
	e := &ResponseEstimator{P: &flatRatePredictor{rates: map[trace.MachineID]float64{}}, Seed: 1}
	got := e.Expected(0, 0, 3*time.Hour)
	if got != 3*time.Hour {
		t.Errorf("failure-free expected response = %v, want exactly the work", got)
	}
}

func TestResponseEstimatorOrdersMachinesByRate(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{
		0: 0.5, // one failure every 2 hours
		1: 0.05,
	}}
	e := &ResponseEstimator{P: p, Seed: 2, Samples: 400}
	bad := e.Expected(0, 0, 4*time.Hour)
	good := e.Expected(1, 0, 4*time.Hour)
	if !(good < bad) {
		t.Errorf("low-rate machine (%v) should beat high-rate (%v)", good, bad)
	}
	// The failure-prone estimate must exceed the pure work substantially.
	if bad < 5*time.Hour {
		t.Errorf("expected response on a 0.5/h machine = %v, want well above 4h", bad)
	}
}

func TestResponseEstimatorHorizonCensors(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{0: 10}} // hopeless
	e := &ResponseEstimator{P: p, Seed: 3, Samples: 50, Horizon: 2 * sim.Day}
	got := e.Expected(0, 0, 10*time.Hour)
	if got > 2*sim.Day {
		t.Errorf("estimate %v exceeds the horizon", got)
	}
	if got < sim.Day {
		t.Errorf("hopeless machine should censor near the horizon, got %v", got)
	}
}

func TestResponseEstimatorDeterministic(t *testing.T) {
	p := &flatRatePredictor{rates: map[trace.MachineID]float64{0: 0.2}}
	a := (&ResponseEstimator{P: p, Seed: 9}).Expected(0, 0, 5*time.Hour)
	b := (&ResponseEstimator{P: p, Seed: 9}).Expected(0, 0, 5*time.Hour)
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

func TestResponseEstimatorWithHistoryWindow(t *testing.T) {
	// Machine 0 fails every weekday at 10:00; a 4-hour job started at
	// 08:00 almost surely dies, while one started at 11:00 is safe, so the
	// expected response at 08:00 must be larger.
	tr := trace.New(sim.Window{End: 28 * sim.Day}, sim.Calendar{}, 1)
	for d := 0; d < 28; d++ {
		dayStart := sim.Time(d) * sim.Day
		if (sim.Calendar{}).DayType(dayStart) != sim.Weekday {
			continue
		}
		tr.Add(trace.Event{
			Machine: 0,
			Start:   dayStart + 10*time.Hour,
			End:     dayStart + 10*time.Hour + 10*time.Minute,
			State:   availability.S3,
		})
	}
	tr.Sort()
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr))
	e := &ResponseEstimator{P: hw, Seed: 4, Samples: 300}
	day := sim.Time(28) * sim.Day // a Monday
	risky := e.Expected(0, day+8*time.Hour, 4*time.Hour)
	safe := e.Expected(0, day+11*time.Hour, 4*time.Hour)
	if !(safe < risky) {
		t.Errorf("post-failure start (%v) should beat pre-failure start (%v)", safe, risky)
	}
	if safe != 4*time.Hour {
		t.Errorf("safe window should complete in exactly 4h, got %v", safe)
	}
}

func TestMinResponsePolicyAvoidsHostileMachine(t *testing.T) {
	tr := hostileTrace()
	cfg := Config{Jobs: 40, JobWork: [2]time.Duration{3 * time.Hour, 4 * time.Hour}, TrainDays: 14, Seed: 6}
	hw := &predict.HistoryWindow{}
	hw.Train(predict.NewTraceHistory(tr.Before(tr.Span.Start + 14*sim.Day)))
	pol := &MinResponse{E: &ResponseEstimator{P: hw, Seed: 5, Samples: 60}}
	truth := predict.NewTraceHistory(tr)
	res, err := Simulate(truth, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFailures > 0 {
		t.Errorf("min-expected-response failed %d times; machine 1 is always clean", res.TotalFailures)
	}
	rr, err := Simulate(truth, &RoundRobin{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MeanResponse < rr.MeanResponse) {
		t.Errorf("min-response %v should beat round-robin %v", res.MeanResponse, rr.MeanResponse)
	}
}
