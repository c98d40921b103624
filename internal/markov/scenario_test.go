package markov

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/simos"
)

// TestScenarioTracesAreLegal generates every scenario at two fixed seeds
// and checks the Figure 5 invariants a trace can express: only failure
// states S3/S4/S5, validated events, events inside the span, and
// deterministic regeneration.
func TestScenarioTracesAreLegal(t *testing.T) {
	for _, s := range Scenarios() {
		for _, seed := range []int64{3, 17} {
			cfg := GenConfig{Machines: 4, Days: 7, Seed: seed}
			tr, err := GenerateScenario(s.Name, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			if len(tr.Events) == 0 {
				t.Fatalf("%s seed %d: no events", s.Name, seed)
			}
			for i, e := range tr.Events {
				if causeIndex(e.State) < 0 {
					t.Fatalf("%s seed %d event %d: state %v is not a failure state", s.Name, seed, i, e.State)
				}
				if e.Start < tr.Span.Start || e.End > tr.Span.End || e.End <= e.Start {
					t.Fatalf("%s seed %d event %d: [%v, %v) outside span %v", s.Name, seed, i, e.Start, e.End, tr.Span)
				}
			}
			again, err := GenerateScenario(s.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr.Events, again.Events) {
				t.Fatalf("%s seed %d: regeneration differs", s.Name, seed)
			}
		}
	}
}

// cpuHog is a simos.Behavior that computes forever without ever sleeping:
// one hog per CPU saturates a multi-CPU machine completely.
type cpuHog struct{}

func (cpuHog) NextPhase(*rand.Rand) (compute, sleep time.Duration, ok bool) {
	return time.Second, 0, true
}

// TestMulticoreScenarioMatchesSimos cross-checks the scenario's premise
// against the real multi-CPU scheduler: a multicoreCores-CPU simos
// machine under one CPU hog per core has zero idle time (fully contended,
// the condition the scenario maps to S3), while one fewer hog leaves a
// full core's worth of idle — so "all cores busy" is exactly the boundary
// at which a guest stops getting CPU.
func TestMulticoreScenarioMatchesSimos(t *testing.T) {
	dur := 10 * time.Second
	full := simos.MustNewMachine(simos.MachineConfig{Name: "mc", CPUs: multicoreCores, Seed: 51})
	for i := 0; i < multicoreCores; i++ {
		full.Spawn("hog", simos.Host, 0, simos.MB, cpuHog{})
	}
	full.Run(dur)
	if full.IdleTime() != 0 {
		t.Errorf("all cores hogged: idle = %v, want 0", full.IdleTime())
	}

	spare := simos.MustNewMachine(simos.MachineConfig{Name: "mc", CPUs: multicoreCores, Seed: 52})
	for i := 0; i < multicoreCores-1; i++ {
		spare.Spawn("hog", simos.Host, 0, simos.MB, cpuHog{})
	}
	spare.Run(dur)
	if spare.IdleTime() != dur {
		t.Errorf("one spare core: idle = %v, want %v", spare.IdleTime(), dur)
	}
}

// TestMulticoreOverlapSemantics pins the k-of-n sweep on hand-built
// interval sets, including the touching-endpoint case that must not count
// as overlap.
func TestMulticoreOverlapSemantics(t *testing.T) {
	h := func(x float64) sim.Time { return sim.Time(x * float64(time.Hour)) }
	sets := [][]sim.Window{
		{{Start: h(0), End: h(3)}, {Start: h(5), End: h(8)}},
		{{Start: h(1), End: h(4)}},
		{{Start: h(2), End: h(6)}},
	}
	got := overlapWindows(sets, 3)
	want := []sim.Window{{Start: h(2), End: h(3)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("3-of-3 overlap = %v, want %v", got, want)
	}
	got = overlapWindows(sets, 2)
	want = []sim.Window{{Start: h(1), End: h(4)}, {Start: h(5), End: h(6)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("2-of-3 overlap = %v, want %v", got, want)
	}
	// A set ending exactly when another starts: no instant with both.
	touch := [][]sim.Window{
		{{Start: h(0), End: h(1)}},
		{{Start: h(1), End: h(2)}},
	}
	if got := overlapWindows(touch, 2); len(got) != 0 {
		t.Errorf("touching intervals counted as overlap: %v", got)
	}
}

// TestSpotWavesAreCorrelated checks the spot scenario's defining
// property: revocation events cluster at shared instants across machines
// (waves), which independent hazards essentially never produce.
func TestSpotWavesAreCorrelated(t *testing.T) {
	tr, err := GenerateScenario("spot", GenConfig{Machines: 20, Days: 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	starts := map[sim.Time]int{}
	for _, e := range tr.Events {
		if e.State == availability.S5 {
			starts[e.Start]++
		}
	}
	maxShared := 0
	for _, n := range starts {
		if n > maxShared {
			maxShared = n
		}
	}
	if maxShared < 5 {
		t.Errorf("largest simultaneous revocation wave hit %d machines, want >= 5 of 20", maxShared)
	}
}
