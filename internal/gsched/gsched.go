// Package gsched simulates proactive guest-job management on top of an
// unavailability trace — the application the paper's introduction motivates
// (response time of compute-bound batch guests suffers when jobs are placed
// obliviously; availability prediction enables proactive placement, as in
// the cluster-scheduling work the paper cites).
//
// A stream of guest jobs arrives over the trace's test period. A placement
// policy picks a machine for each job (and again after every failure); the
// trace decides whether an unavailability event kills the job before it
// completes. Jobs restart from scratch (or from their last checkpoint) on
// failure. Comparing completion times across policies quantifies how much
// the paper's predictability observation is actually worth.
package gsched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Policy picks machines for guest jobs.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick chooses a machine for a job needing work more CPU time,
	// starting at now, from machines 0..n-1.
	Pick(now sim.Time, work time.Duration, n int) trace.MachineID
	// ObserveFailure informs the policy that its job failed on m at the
	// given time (stateful policies learn from it).
	ObserveFailure(m trace.MachineID, at sim.Time)
}

// Random places jobs uniformly at random.
type Random struct {
	R *rand.Rand
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Pick implements Policy.
func (p *Random) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	return trace.MachineID(p.R.Intn(n))
}

// ObserveFailure implements Policy.
func (p *Random) ObserveFailure(trace.MachineID, sim.Time) {}

// RoundRobin cycles through machines.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	m := trace.MachineID(p.next % n)
	p.next++
	return m
}

// ObserveFailure implements Policy.
func (p *RoundRobin) ObserveFailure(trace.MachineID, sim.Time) {}

// LeastRecentlyFailed prefers the machine whose last observed failure (of
// this policy's own jobs) is oldest — a reactive heuristic that needs no
// prediction.
type LeastRecentlyFailed struct {
	lastFail map[trace.MachineID]sim.Time
	rr       int
}

// Name implements Policy.
func (p *LeastRecentlyFailed) Name() string { return "least-recently-failed" }

// Pick implements Policy.
func (p *LeastRecentlyFailed) Pick(_ sim.Time, _ time.Duration, n int) trace.MachineID {
	if p.lastFail == nil {
		p.lastFail = make(map[trace.MachineID]sim.Time)
	}
	best := trace.MachineID(p.rr % n)
	p.rr++
	bestT, seen := p.lastFail[best]
	if !seen {
		return best
	}
	for m := 0; m < n; m++ {
		id := trace.MachineID(m)
		t, ok := p.lastFail[id]
		if !ok {
			return id
		}
		if t < bestT {
			best, bestT = id, t
		}
	}
	return best
}

// ObserveFailure implements Policy.
func (p *LeastRecentlyFailed) ObserveFailure(m trace.MachineID, at sim.Time) {
	if p.lastFail == nil {
		p.lastFail = make(map[trace.MachineID]sim.Time)
	}
	p.lastFail[m] = at
}

// Predictive places each job on the machine with the highest predicted
// survival for the job's execution window — the paper's proactive
// management realized.
type Predictive struct {
	P predict.Predictor
}

// Name implements Policy.
func (p *Predictive) Name() string { return "predictive(" + p.P.Name() + ")" }

// Pick implements Policy. The choice is deterministic: ties go to the
// lowest machine id, and an undefined (NaN) prediction never wins — see
// pickBest.
func (p *Predictive) Pick(now sim.Time, work time.Duration, n int) trace.MachineID {
	w := sim.Window{Start: now, End: now + work}
	best, _ := pickBest(n, func(m trace.MachineID) float64 {
		return p.P.PredictSurvival(m, w)
	})
	return best
}

// pickBest returns the machine with the highest score and that score.
// It is the one comparison loop every score-ranked placement shares, and
// it pins down the two edges a naive `s > best` loop gets wrong:
//
//   - NaN never wins. Every comparison against NaN is false, so depending
//     on argument order a NaN score could either freeze the running best
//     or (as the seed of the loop) poison it forever. Here NaN scores are
//     skipped outright — a machine whose predictor answers "undefined"
//     cannot be chosen over one with a defined score, however bad.
//   - Ties are deterministic: the lowest machine id wins, so a fleet of
//     identically scored machines yields a stable, reproducible choice
//     rather than one that depends on iteration accidents.
//
// When every score is NaN there is nothing to rank; the fallback is
// machine 0 with a NaN score so the caller can detect the case.
func pickBest(n int, score func(trace.MachineID) float64) (trace.MachineID, float64) {
	best := trace.MachineID(0)
	bestS := math.NaN()
	found := false
	for m := 0; m < n; m++ {
		s := score(trace.MachineID(m))
		if math.IsNaN(s) {
			continue
		}
		if !found || s > bestS {
			best, bestS, found = trace.MachineID(m), s, true
		}
	}
	return best, bestS
}

// ObserveFailure implements Policy.
func (p *Predictive) ObserveFailure(trace.MachineID, sim.Time) {}

// Config controls the job-stream simulation.
type Config struct {
	// Jobs is the number of guest jobs.
	Jobs int
	// JobWork is the CPU time a job needs (uniform range).
	JobWork [2]time.Duration
	// TrainDays is the history prefix available to predictive policies;
	// jobs arrive only in the remaining test period.
	TrainDays int
	// RetryDelay is the pause before a failed job restarts elsewhere.
	RetryDelay time.Duration
	// Checkpoint, when positive, preserves work in multiples of this
	// interval across failures (0 = restart from scratch, like the
	// paper's batch guests).
	Checkpoint time.Duration
	// Seed roots the job stream.
	Seed int64
}

// DefaultConfig runs 400 jobs of 1-5 hours without checkpointing.
func DefaultConfig() Config {
	return Config{
		Jobs:       400,
		JobWork:    [2]time.Duration{time.Hour, 5 * time.Hour},
		TrainDays:  28,
		RetryDelay: time.Minute,
		Seed:       7,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Jobs == 0 {
		c.Jobs = d.Jobs
	}
	if c.JobWork[1] == 0 {
		c.JobWork = d.JobWork
	}
	if c.TrainDays == 0 {
		c.TrainDays = d.TrainDays
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = d.RetryDelay
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("gsched: jobs must be positive, got %d", c.Jobs)
	}
	if c.JobWork[0] <= 0 || c.JobWork[0] > c.JobWork[1] {
		return fmt.Errorf("gsched: bad job work range %v", c.JobWork)
	}
	if c.TrainDays < 0 || c.RetryDelay < 0 || c.Checkpoint < 0 {
		return fmt.Errorf("gsched: negative durations")
	}
	return nil
}

// JobStat records one job's fate.
type JobStat struct {
	Arrival    sim.Time
	Work       time.Duration
	Completion sim.Time // zero if unfinished at span end
	Failures   int
	Done       bool
}

// ResponseTime is completion minus arrival.
func (j JobStat) ResponseTime() time.Duration { return j.Completion - j.Arrival }

// Slowdown is response time divided by the job's pure work.
func (j JobStat) Slowdown() float64 {
	if j.Work <= 0 {
		return 0
	}
	return float64(j.ResponseTime()) / float64(j.Work)
}

// Result summarizes one policy's run.
type Result struct {
	Policy         string
	Completed      int
	Unfinished     int
	TotalFailures  int
	MeanResponse   time.Duration
	MedianResponse time.Duration
	MeanSlowdown   float64
	// WastedWork is CPU time lost to failures (work redone).
	WastedWork time.Duration
	// Migrations counts proactive mid-job moves (SimulateMigrating and
	// SimulateProactive).
	Migrations int
	// Checkpoints counts forecast-triggered checkpoints
	// (SimulateProactive only).
	Checkpoints int
	// SavedWork is CPU time that forecast-triggered checkpoints preserved
	// across failures beyond what the periodic checkpoint cadence would
	// have kept (SimulateProactive only).
	SavedWork time.Duration
}

// Simulate replays the job stream against the trace under one policy.
// The same (trace, cfg) pair presents an identical job stream to every
// policy — and to SimulateMigrating and SimulateProactive — so results are
// directly comparable.
func Simulate(tr *trace.Trace, policy Policy, cfg Config) (Result, error) {
	return simulate(tr, tr.BuildIndex(), policy, cfg, nil)
}

// review is the optional step a running job takes after every `every` of
// surviving progress — the only thing the three simulations vary. decide
// looks at the job's remaining work on machine m and answers whether to
// pin its progress with a checkpoint first, and which machine to continue
// on (m itself to stay).
type review struct {
	suffix         string // appended to the policy name in Result.Policy
	every          time.Duration
	checkpointCost time.Duration
	migrateDelay   time.Duration
	decide         func(now sim.Time, remaining time.Duration, m trace.MachineID) (checkpoint bool, next trace.MachineID)
}

// simulate is the one replay loop: validate, pre-draw the job stream in
// arrival order (so every policy and every review variant sees the same
// jobs, and stateful policies observe failures in time order), run each
// job against the ground-truth index, aggregate. Compare passes one index
// to amortize its build across policies.
func simulate(tr *trace.Trace, ix *trace.Index, policy Policy, cfg Config, rv *review) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	testStart := tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day
	if testStart >= tr.Span.End {
		return Result{}, fmt.Errorf("gsched: training period consumes the trace span")
	}
	jobRNG := sim.NewSource(cfg.Seed).Stream("gsched/jobs")
	jobs := make([]JobStat, cfg.Jobs)
	for i := range jobs {
		jobs[i] = JobStat{
			Arrival: testStart + sim.Uniform(jobRNG, 0, tr.Span.End-testStart),
			Work:    sim.Uniform(jobRNG, cfg.JobWork[0], cfg.JobWork[1]),
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })

	res := Result{Policy: policy.Name()}
	if rv != nil {
		res.Policy += rv.suffix
	}
	var responses, slowdowns []float64
	for _, jb := range jobs {
		stat := runJob(ix, policy, cfg, rv, tr.Machines, tr.Span.End, jb, &res)
		if !stat.Done {
			res.Unfinished++
			continue
		}
		res.Completed++
		res.TotalFailures += stat.Failures
		responses = append(responses, float64(stat.ResponseTime()))
		slowdowns = append(slowdowns, stat.Slowdown())
	}
	if len(responses) > 0 {
		res.MeanResponse = time.Duration(stats.Mean(responses))
		res.MedianResponse = time.Duration(stats.Median(responses))
		res.MeanSlowdown = stats.Mean(slowdowns)
	}
	return res, nil
}

// runJob executes one job (stat carries its arrival and work) to
// completion or span end. The job runs in chunks — its whole remaining
// work, or rv.every when reviews are on — and each chunk either survives
// (progress, then a review if work remains) or meets an unavailability
// event. Progress survives reviews, checkpoints and migrations but is lost
// to failures: back to the furthest of the periodic checkpoint cadence and
// the last review-triggered checkpoint, or to zero with neither — a
// surviving chunk is NOT an implicit checkpoint.
func runJob(ix *trace.Index, policy Policy, cfg Config, rv *review, machines int, spanEnd sim.Time, stat JobStat, res *Result) JobStat {
	var done time.Duration // work completed and not lost
	var ckpt time.Duration // progress pinned by the last review checkpoint
	var m trace.MachineID
	placed := false
	for now := stat.Arrival; now < spanEnd; {
		if !placed {
			m, placed = policy.Pick(now, stat.Work-done, machines), true
		}
		chunk := stat.Work - done
		if rv != nil && rv.every < chunk {
			chunk = rv.every
		}
		ev, overlaps := ix.FirstOverlap(m, sim.Window{Start: now, End: now + chunk})
		if !overlaps {
			now += chunk
			done += chunk
			if done >= stat.Work {
				if now <= spanEnd {
					stat.Completion, stat.Done = now, true
				}
				return stat
			}
			checkpoint, next := rv.decide(now, stat.Work-done, m)
			if checkpoint && done > ckpt {
				ckpt = done
				res.Checkpoints++
				now += rv.checkpointCost
			}
			if next != m {
				m = next
				res.Migrations++
				now += rv.migrateDelay
			}
			continue
		}
		// The job dies when the event begins (or immediately, if the
		// machine is already unavailable).
		failAt := max(ev.Start, now)
		done += failAt - now
		var periodic time.Duration
		if cfg.Checkpoint > 0 {
			periodic = done / cfg.Checkpoint * cfg.Checkpoint
		}
		kept := max(periodic, ckpt)
		res.WastedWork += done - kept
		res.SavedWork += kept - periodic
		done = kept
		stat.Failures++
		policy.ObserveFailure(m, failAt)
		// Restart after the outage clears plus the retry delay. Other
		// machines may be free sooner, but the failure must be noticed
		// and the job resubmitted, which the delay models.
		now = failAt + cfg.RetryDelay
		if ev.End > now {
			// If the policy insists on the same machine it would fail
			// instantly; advancing past the event keeps the comparison
			// fair for the oblivious policies too.
			now = ev.End + cfg.RetryDelay
		}
		placed = false
	}
	return stat
}

// Compare runs every policy against the same trace and job stream. The
// ground-truth index is built once and shared across policies.
func Compare(tr *trace.Trace, policies []Policy, cfg Config) ([]Result, error) {
	ix := tr.BuildIndex()
	var out []Result
	for _, p := range policies {
		r, err := simulate(tr, ix, p, cfg, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// TrainedPredictive places with the paper's history-window predictor, 10%
// trimmed, trained on the cfg.TrainDays prefix of tr.
func TrainedPredictive(tr *trace.Trace, cfg Config) *Predictive {
	cfg = cfg.withDefaults()
	hw := &predict.HistoryWindow{Trim: 0.1}
	hw.Train(predict.NewTraceHistory(tr.Before(tr.Span.Start + sim.Time(cfg.TrainDays)*sim.Day)))
	return &Predictive{P: hw}
}

// DefaultPolicies builds the standard comparison lineup: oblivious
// baselines plus TrainedPredictive.
func DefaultPolicies(tr *trace.Trace, cfg Config, seed int64) []Policy {
	return []Policy{
		&Random{R: sim.NewSource(seed).Stream("policy/random")},
		&RoundRobin{},
		&LeastRecentlyFailed{},
		TrainedPredictive(tr, cfg),
	}
}

// FormatResults renders a comparison table.
func FormatResults(rs []Result) string {
	var b strings.Builder
	b.WriteString("Proactive scheduling — job completion under placement policies\n")
	fmt.Fprintf(&b, "%-34s %9s %9s %12s %12s %10s %8s\n",
		"policy", "completed", "failures", "mean-resp", "median-resp", "slowdown", "wasted")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-34s %9d %9d %12s %12s %10.2f %8s\n",
			r.Policy, r.Completed, r.TotalFailures,
			r.MeanResponse.Round(time.Minute), r.MedianResponse.Round(time.Minute),
			r.MeanSlowdown, r.WastedWork.Round(time.Hour))
	}
	return b.String()
}

// MinResponse places each job on the machine with the lowest expected
// response time, using predict.ResponseEstimator. For jobs long enough
// that failure is near-certain everywhere, survival probabilities all
// collapse toward zero and stop ranking machines; expected response still
// does, which is why the paper calls response time the primary metric.
type MinResponse struct {
	E *predict.ResponseEstimator
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
