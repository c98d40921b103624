package markov

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Round-trip tolerances (documented in EXPERIMENTS.md E24). The refit
// compares two independent Poisson-noisy estimates of the same hazard, so
// per-bucket error scales as 1/sqrt(events in the bucket); the tolerances
// below hold with margin at the fleet sizes used here.
const (
	// rtWeeklyTol bounds the relative error of the per-cause weekly
	// aggregate rate.
	rtWeeklyTol = 0.10
	// rtBucketTol bounds the relative error of any single hour-of-week
	// bucket whose fitted rate is at least rtBucketMinRate (below that a
	// bucket holds too few events for a per-bucket comparison to mean
	// anything; the weekly aggregate still covers it).
	rtBucketTol     = 0.50
	rtBucketMinRate = 0.10
	// rtBucketMeanTol bounds the mean relative error across those buckets.
	rtBucketMeanTol = 0.20
	// rtKSTol bounds the Kolmogorov-Smirnov distance between fitted and
	// refitted duration ECDFs (per cause, pooled day types) and between
	// the source and generated availability-interval ECDFs.
	rtKSTol = 0.08
)

// TestFitGenerateRefitRoundTrip is the tentpole's core validation: fit a
// model from a trace, run it as a generator, refit from the generated
// fleet, and require the refitted transition rates and interval ECDFs to
// recover the fitted ones within the documented tolerances — on three
// fixed seeds.
func TestFitGenerateRefitRoundTrip(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		// Source trace: an enterprise fleet, the scenario with the
		// sharpest hour-of-week structure (office hours vs nights).
		src, err := GenerateScenario("enterprise", GenConfig{Machines: 60, Days: 35, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: source generate: %v", seed, err)
		}
		m1, err := Fit(src, FitOptions{})
		if err != nil {
			t.Fatalf("seed %d: fit: %v", seed, err)
		}
		gen, err := Generate(m1, GenConfig{Machines: 120, Days: 35, Seed: seed + 1000})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		m2, err := Fit(gen, FitOptions{})
		if err != nil {
			t.Fatalf("seed %d: refit: %v", seed, err)
		}

		// Per-cause weekly aggregate rates.
		for c := 0; c < NumCauses; c++ {
			w1, w2 := m1.Fleet.WeeklyRate(c), m2.Fleet.WeeklyRate(c)
			if w1 < 1e-4 {
				continue
			}
			if rel := math.Abs(w2-w1) / w1; rel > rtWeeklyTol {
				t.Errorf("seed %d cause %d: weekly rate %.4f refit %.4f (rel %.3f > %.2f)",
					seed, c, w1, w2, rel, rtWeeklyTol)
			}
		}

		// Per-hour-of-week buckets with enough fitted mass.
		for c := 0; c < NumCauses; c++ {
			var sumRel float64
			var n int
			for h := 0; h < sim.HoursPerWeek; h++ {
				r1 := m1.Fleet.Rates[h][c]
				if r1 < rtBucketMinRate {
					continue
				}
				rel := math.Abs(m2.Fleet.Rates[h][c]-r1) / r1
				if rel > rtBucketTol {
					t.Errorf("seed %d cause %d hour %d: rate %.4f refit %.4f (rel %.3f > %.2f)",
						seed, c, h, r1, m2.Fleet.Rates[h][c], rel, rtBucketTol)
				}
				sumRel += rel
				n++
			}
			if n > 0 {
				if mean := sumRel / float64(n); mean > rtBucketMeanTol {
					t.Errorf("seed %d cause %d: mean bucket error %.3f > %.2f over %d buckets",
						seed, c, mean, rtBucketMeanTol, n)
				}
			}
		}

		// Duration distributions per cause (pooled day types via weekday —
		// the dominant sample).
		for c := 0; c < NumCauses; c++ {
			e1 := m1.Fleet.Durations[c][int(sim.Weekday)]
			e2 := m2.Fleet.Durations[c][int(sim.Weekday)]
			if e1.N() < 100 || e2.N() < 100 {
				continue
			}
			if ks := e1.KSDistance(e2); ks > rtKSTol {
				t.Errorf("seed %d cause %d: duration KS %.3f > %.2f (n=%d vs %d)",
					seed, c, ks, rtKSTol, e1.N(), e2.N())
			}
		}

		// Figure 6 surface: the generated fleet's availability-interval
		// distribution matches the source fleet's.
		var srcECDF, genECDF [2]*stats.ECDF
		srcECDF[sim.Weekday], srcECDF[sim.Weekend] = src.IntervalECDFs()
		genECDF[sim.Weekday], genECDF[sim.Weekend] = gen.IntervalECDFs()
		for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
			e1, e2 := srcECDF[dt], genECDF[dt]
			if e1.N() == 0 || e2.N() == 0 {
				continue
			}
			if ks := e1.KSDistance(e2); ks > rtKSTol {
				t.Errorf("seed %d %v: interval ECDF KS %.3f > %.2f", seed, dt, ks, rtKSTol)
			}
		}
	}
}

// TestGenerateDeterministic pins the seeded-generator contract: the same
// (model, config) yields byte-identical events, serially and with the
// machines split across four workers, and machine streams are independent
// of fleet size (machine 0 draws the same life in a 1-machine and a
// 5-machine fleet).
func TestGenerateDeterministic(t *testing.T) {
	m := EnterpriseModel()
	cfg := GenConfig{Machines: 5, Days: 10, Seed: 42}
	var runs []*trace.Trace
	for _, procs := range []int{1, 4, 4} {
		atProcs(procs, func() {
			tr, err := Generate(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, tr)
		})
	}
	a := runs[0]
	if len(a.Events) == 0 {
		t.Fatal("generated no events")
	}
	for i, b := range runs[1:] {
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d at GOMAXPROCS 4 differs from the serial one", i+1)
		}
	}

	solo, err := Generate(m, GenConfig{Machines: 1, Days: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var m0 []trace.Event
	for _, e := range a.Events {
		if e.Machine == 0 {
			m0 = append(m0, e)
		}
	}
	if len(m0) != len(solo.Events) {
		t.Fatalf("machine 0 events depend on fleet size: %d vs %d", len(m0), len(solo.Events))
	}
	for i := range m0 {
		if m0[i] != solo.Events[i] {
			t.Fatalf("machine 0 event %d depends on fleet size: %+v vs %+v", i, m0[i], solo.Events[i])
		}
	}
}

// TestFitRejectsDegenerateInput pins the error paths.
func TestFitRejectsDegenerateInput(t *testing.T) {
	if _, err := Fit(nil, FitOptions{}); err == nil {
		t.Error("nil trace accepted")
	}
	empty := trace.New(sim.Window{}, sim.Calendar{}, 0)
	if _, err := Fit(empty, FitOptions{}); err == nil {
		t.Error("zero-machine trace accepted")
	}
	zeroSpan := trace.New(sim.Window{}, sim.Calendar{}, 2)
	if _, err := Fit(zeroSpan, FitOptions{}); err == nil {
		t.Error("zero-span trace accepted")
	}
	if _, err := Generate(EnterpriseModel(), GenConfig{}); err == nil {
		t.Error("zero GenConfig accepted")
	}
	if _, err := GenerateScenario("no-such-scenario", GenConfig{Machines: 1, Days: 1, Seed: 1}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestStateDistribution checks the stationary occupancy is a proper
// distribution dominated by availability.
func TestStateDistribution(t *testing.T) {
	for _, name := range ScenarioNames() {
		d, err := ScenarioStateDistribution(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum float64
		for _, p := range d {
			if p < 0 || p > 1 {
				t.Fatalf("%s: occupancy %v outside [0,1]", name, d)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: occupancies sum to %v, want 1", name, sum)
		}
		if d[0]+d[1] < 0.5 {
			t.Errorf("%s: available mass %v, want the fleet mostly available", name, d[0]+d[1])
		}
	}
}
