package check

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/markov"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// checkMarkovSeed is the generative-model leg of the differential: one
// scenario fleet per seed, generated twice (determinism), validated for
// legal Figure 5 content (only failure states, events inside the span),
// and analyzed four ways — the naive oracles of this package, a serial
// StreamAnalyzer (which the Trace methods wrap), two machine-range partials
// merged with MergeFrom, and the parallel block-file scanner over a
// multi-block v2 encoding — all of which must agree bit-for-bit on Table 2,
// the Figure 6 interval samples and the Figure 7 hourly bins. The same trace then routes the
// SemiMarkov age/survival boundary semantics through an independent
// linear-scan reference.
func checkMarkovSeed(seed int64, res *Result) error {
	rng := sim.NewSource(seed).Stream("check/markov")
	names := markov.ScenarioNames()
	name := names[rng.Intn(len(names))]
	cfg := markov.GenConfig{
		Machines:     3 + rng.Intn(4),
		Days:         3 + rng.Intn(5),
		StartWeekday: rng.Intn(7),
		Seed:         seed,
	}
	tr, err := markov.GenerateScenario(name, cfg)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", name, err)
	}
	again, err := markov.GenerateScenario(name, cfg)
	if err != nil {
		return fmt.Errorf("scenario %s regenerate: %w", name, err)
	}
	if err := sameEvents(fmt.Sprintf("scenario %s determinism", name), tr.Events, again.Events); err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", name, err)
	}
	for i, e := range tr.Events {
		// A trace can only express the Figure 5 edges available->failure->
		// available; illegal content would be a non-failure state or an
		// event outside the observed span.
		if c := e.State; c != markov.CauseStates[0] && c != markov.CauseStates[1] && c != markov.CauseStates[2] {
			return fmt.Errorf("scenario %s event %d: state %v is not a Figure 5 failure state", name, i, e.State)
		}
		if e.Start < tr.Span.Start || e.End > tr.Span.End || e.End <= e.Start {
			return fmt.Errorf("scenario %s event %d: [%v, %v) outside span %v", name, i, e.Start, e.End, tr.Span)
		}
	}

	// Serial streaming pass, which must match the naive whole-slice oracles
	// exactly.
	serial, err := serialMatchesOracle("scenario "+name+" serial", tr)
	if err != nil {
		return err
	}

	// Sharded pass: two machine-range partials merged in order.
	mid := trace.MachineID(1 + rng.Intn(tr.Machines))
	lo := trace.NewStreamAnalyzerRange(tr.Span, tr.Calendar, tr.Machines, 0, mid)
	hi := trace.NewStreamAnalyzerRange(tr.Span, tr.Calendar, tr.Machines, mid, trace.MachineID(tr.Machines))
	for _, e := range tr.Events {
		part := lo
		if e.Machine >= mid {
			part = hi
		}
		if err := part.Observe(e); err != nil {
			return fmt.Errorf("scenario %s sharded observe: %w", name, err)
		}
	}
	lo.Finish()
	hi.Finish()
	if err := lo.MergeFrom(hi); err != nil {
		return fmt.Errorf("scenario %s merge: %w", name, err)
	}
	if err := sameAnalyzers(name+" serial vs sharded", serial, lo); err != nil {
		return err
	}

	// Parallel block path: a multi-block v2 encoding scanned by the
	// worker-pool analyzer.
	var col bytes.Buffer
	if err := tr.WriteBlocks(&col, &trace.BlockWriterOptions{BlockSize: 32}); err != nil {
		return fmt.Errorf("scenario %s v2 encode: %w", name, err)
	}
	bf, err := trace.NewBlockFileBytes(col.Bytes())
	if err != nil {
		return fmt.Errorf("scenario %s block file: %w", name, err)
	}
	par, err := trace.AnalyzeBlockFiles([]*trace.BlockFile{bf}, 1+rng.Intn(3))
	if err != nil {
		return fmt.Errorf("scenario %s parallel analyze: %w", name, err)
	}
	if err := sameAnalyzers(name+" serial vs parallel", serial, par); err != nil {
		return err
	}

	if err := checkSemiMarkovBoundaries(name, tr, res); err != nil {
		return err
	}
	res.MarkovRuns++
	res.MarkovEvents += int64(len(tr.Events))
	return nil
}

// serialMatchesOracle runs tr's sorted events through a fresh serial
// StreamAnalyzer and requires it to reproduce the naive whole-slice
// analyses of tr exactly — Table 2, the per-machine cause counts, the
// Figure 6 interval samples and their ECDF, and the Figure 7 hourly bins —
// rather than the Trace methods, which wrap the analyzer. It returns the
// finished analyzer for further comparisons. The differential's generative
// leg and the trace and scenario tests all hold the analyzer to the oracles
// through it.
func serialMatchesOracle(what string, tr *trace.Trace) (*trace.StreamAnalyzer, error) {
	a := trace.NewStreamAnalyzer(tr.Span, tr.Calendar, tr.Machines)
	for _, e := range tr.Events {
		if err := a.Observe(e); err != nil {
			return nil, fmt.Errorf("%s: observe: %w", what, err)
		}
	}
	a.Finish()
	if got, want := a.Table2(), NaiveTable2(tr); got != want {
		return nil, fmt.Errorf("%s: Table2 %+v, oracle %+v", what, got, want)
	}
	if got, want := a.CountByCause(), NaiveCountByCause(tr); !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("%s: CountByCause %v, oracle %v", what, got, want)
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		lengths := NaiveIntervalLengths(tr, dt)
		if got := a.IntervalLengths(dt); !sameFloats(got, lengths) {
			return nil, fmt.Errorf("%s %v: interval lengths diverge (%d vs %d)", what, dt, len(got), len(lengths))
		}
		if got, want := a.IntervalECDF(dt), stats.NewECDF(lengths); !reflect.DeepEqual(got, want) {
			return nil, fmt.Errorf("%s %v: interval ECDF diverges", what, dt)
		}
		if got, want := a.HourlyOccurrences(dt), NaiveHourlyOccurrences(tr, dt); !reflect.DeepEqual(got, want) {
			return nil, fmt.Errorf("%s %v: hourly occurrences diverge", what, dt)
		}
	}
	return a, nil
}

// sameAnalyzers requires two finished analyzers to agree on every
// published surface.
func sameAnalyzers(what string, a, b *trace.StreamAnalyzer) error {
	if a.Events() != b.Events() {
		return fmt.Errorf("%s: %d vs %d events", what, a.Events(), b.Events())
	}
	if at, bt := a.Table2(), b.Table2(); at != bt {
		return fmt.Errorf("%s: Table2 %+v vs %+v", what, at, bt)
	}
	if ac, bc := a.CountByCause(), b.CountByCause(); !reflect.DeepEqual(ac, bc) {
		return fmt.Errorf("%s: CountByCause %v vs %v", what, ac, bc)
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if al, bl := a.IntervalLengths(dt), b.IntervalLengths(dt); !sameFloats(al, bl) {
			return fmt.Errorf("%s %v: interval lengths diverge (%d vs %d)", what, dt, len(al), len(bl))
		}
		if ah, bh := a.HourlyOccurrences(dt), b.HourlyOccurrences(dt); !reflect.DeepEqual(ah, bh) {
			return fmt.Errorf("%s %v: hourly occurrences diverge", what, dt)
		}
	}
	return nil
}

// sameFloats compares two float slices bit-for-bit, treating nil and
// empty as equal (partial analyzers may hold either).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSemiMarkovBoundaries routes the SemiMarkov predictor's age and
// survival boundary semantics through an independent reference: the age
// comes from a linear scan over the raw events (an event ending exactly
// at the span start counts as a renewal), and the survival from the raw
// ECDF identity S(age+d)/S(age) with its out-of-support fallback. The
// indexed predictor must agree exactly at adversarial instants: the span
// edges and every event end, the exact boundary the audit fixed.
func checkSemiMarkovBoundaries(name string, tr *trace.Trace, res *Result) error {
	s := &predict.SemiMarkov{}
	s.Train(predict.NewTraceHistory(tr))
	ecdfs := map[sim.DayType]*stats.ECDF{
		sim.Weekday: stats.NewECDF(NaiveIntervalLengths(tr, sim.Weekday)),
		sim.Weekend: stats.NewECDF(NaiveIntervalLengths(tr, sim.Weekend)),
	}

	machines := []trace.MachineID{0, trace.MachineID(tr.Machines - 1), trace.MachineID(tr.Machines), -1}
	for _, m := range machines {
		starts := []sim.Time{tr.Span.Start, tr.Span.End, (tr.Span.Start + tr.Span.End) / 2}
		for _, e := range tr.MachineEvents(m) {
			starts = append(starts, e.End, e.End+sim.Time(30*time.Minute))
		}
		for _, at := range starts {
			w := sim.Window{Start: at, End: at + sim.Day/24}
			want := naiveSemiMarkovSurvival(tr, ecdfs, m, w)
			if got := s.PredictSurvival(m, w); got != want {
				return fmt.Errorf("scenario %s: SemiMarkov survival(m=%d, %v) = %v, reference %v",
					name, m, w, got, want)
			}
			res.MarkovChecks++
		}
	}
	return nil
}

// naiveSemiMarkovSurvival recomputes SemiMarkov.PredictSurvival from first
// principles with a linear scan instead of the index.
func naiveSemiMarkovSurvival(tr *trace.Trace, ecdfs map[sim.DayType]*stats.ECDF, m trace.MachineID, w sim.Window) float64 {
	ecdf := ecdfs[tr.Calendar.DayType(w.Start)]
	if ecdf == nil || ecdf.N() == 0 {
		return 0.5
	}
	age := w.Start - tr.Span.Start
	best, found := sim.Time(0), false
	for _, e := range tr.Events {
		if e.Machine == m && e.End <= w.Start && (!found || e.End > best) {
			best, found = e.End, true
		}
	}
	if found && best >= tr.Span.Start {
		age = w.Start - best
	}
	if age < 0 {
		age = 0
	}
	a := age.Hours()
	sa := ecdf.Survival(a)
	if sa == 0 {
		return stats.Clamp01(ecdf.Survival(w.Duration().Hours()))
	}
	return stats.Clamp01(ecdf.Survival(a+w.Duration().Hours()) / sa)
}

// TestScenarioStreamDifferential pins the per-scenario leg of the
// generative differential on one fixed seed: for each scenario, a serial
// StreamAnalyzer over the sorted events must reproduce the naive
// whole-slice oracles exactly.
func TestScenarioStreamDifferential(t *testing.T) {
	for _, s := range markov.Scenarios() {
		tr, err := markov.GenerateScenario(s.Name, markov.GenConfig{Machines: 5, Days: 5, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, err := serialMatchesOracle(s.Name, tr); err != nil {
			t.Error(err)
		}
	}
}
