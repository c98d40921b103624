package markov

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// naiveFit is Fit as it was before it grouped the events: for every machine,
// one whole-trace scan for its intervals and another for its events.
func naiveFit(tr *trace.Trace) *Model {
	fleet := &fitAccum{}
	for id := 0; id < tr.Machines; id++ {
		acc := &fitAccum{}
		for _, iv := range tr.Intervals(trace.MachineID(id)) {
			acc.addExposure(tr.Calendar, iv)
		}
		acc.addEvents(tr.Calendar, tr.MachineEvents(trace.MachineID(id)))
		fleet.merge(acc)
	}
	return &Model{Calendar: tr.Calendar, Machines: tr.Machines, Fleet: fleet.model()}
}

// TestFitMatchesPerMachineScans holds the grouped Fit to the per-machine
// scans it replaced, exactly (DeepEqual on the whole Model), serially and with the machines split across four
// workers: on the round-trip seeds as generated and shuffled, and
// on a hand-made trace where events of one machine start together, overlap,
// sit outside the span, and belong to machines outside the fleet.
func TestFitMatchesPerMachineScans(t *testing.T) {
	var traces []*trace.Trace
	for _, seed := range []int64{11, 22, 33} {
		src, err := GenerateScenario("enterprise", GenConfig{Machines: 60, Days: 35, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		shuffled := src.Clone()
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Events), func(i, j int) {
			shuffled.Events[i], shuffled.Events[j] = shuffled.Events[j], shuffled.Events[i]
		})
		traces = append(traces, src, shuffled)
	}
	ties := trace.New(sim.Window{Start: 0, End: 14 * sim.Day}, sim.Calendar{StartWeekday: 3}, 3)
	ev := func(m trace.MachineID, start, end time.Duration, st availability.State) {
		ties.Add(trace.Event{Machine: m, Start: start, End: end, State: st, AvailCPU: 0.5})
	}
	for d := time.Duration(0); d < 14; d++ {
		at := d*sim.Day + 9*time.Hour
		ev(1, at, at+2*time.Hour, availability.S3)    // three that start together,
		ev(1, at, at+30*time.Minute, availability.S4) // the longest first,
		ev(1, at, at+time.Hour, availability.S5)
		ev(1, at+90*time.Minute, at+3*time.Hour, availability.S3) // one overlapping their run,
		ev(1, at+3*time.Hour, at+4*time.Hour, availability.S4)    // one touching it;
		ev(2, at+time.Hour, at+time.Hour, availability.S5)        // a zero-length event;
		ev(-1, at, at+time.Hour, availability.S3)                 // and two outside the fleet.
		ev(3, at, at+time.Hour, availability.S3)
	}
	ev(0, -2*time.Hour, time.Hour, availability.S3) // across the span's start
	ev(0, 14*sim.Day-time.Hour, 15*sim.Day, availability.S4)
	traces = append(traces, ties)

	for i, tr := range traces {
		want := naiveFit(tr)
		for _, procs := range []int{1, 4} {
			atProcs(procs, func() {
				got, err := Fit(tr, FitOptions{})
				if err != nil {
					t.Fatalf("trace %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace %d, GOMAXPROCS %d: grouped fit differs from the per-machine scans", i, procs)
				}
			})
		}
	}
}

// atProcs runs fn with GOMAXPROCS at procs: 1 is the serial path, more
// splits the machines across workers.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}
