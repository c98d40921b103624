package check

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// randomTrace is n random failure events over 20 machines and 92 days.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(sim.Window{Start: 0, End: 92 * sim.Day}, sim.Calendar{StartWeekday: 2}, 20)
	states := []availability.State{availability.S3, availability.S4, availability.S5}
	for i := 0; i < n; i++ {
		start := time.Duration(rng.Int63n(int64(91 * sim.Day)))
		dur := time.Duration(rng.Int63n(int64(4 * time.Hour)))
		tr.Add(trace.Event{
			Machine:  trace.MachineID(rng.Intn(20)),
			Start:    start,
			End:      start + dur,
			State:    states[rng.Intn(len(states))],
			AvailCPU: rng.Float64(),
			AvailMem: rng.Int63n(4 << 30),
		})
	}
	return tr
}

func span(d time.Duration) sim.Window { return sim.Window{Start: 0, End: d} }

func mkEvent(m trace.MachineID, start, end time.Duration, st availability.State) trace.Event {
	return trace.Event{Machine: m, Start: start, End: end, State: st, AvailCPU: 0.5, AvailMem: 1 << 30}
}

var (
	tbOnce sync.Once
	tbTr   *trace.Trace
	tbErr  error
)

// testbedTrace memoizes a moderately sized testbed trace: 8 machines, 70
// days, the default seed.
func testbedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tbOnce.Do(func() {
		cfg := testbed.DefaultConfig()
		cfg.Machines = 8
		cfg.Days = 70
		tbTr, tbErr = testbed.Run(cfg)
	})
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbTr
}
