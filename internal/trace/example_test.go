package trace_test

import (
	"fmt"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExampleTrace shows the core trace workflow: record events, extract
// availability intervals, and compute the Table 2 breakdown.
func ExampleTrace() {
	tr := trace.New(sim.Window{Start: 0, End: sim.Day}, sim.Calendar{}, 1)
	tr.Add(trace.Event{
		Machine: 0, Start: 2 * time.Hour, End: 2*time.Hour + 10*time.Minute,
		State: availability.S3,
	})
	tr.Add(trace.Event{
		Machine: 0, Start: 14 * time.Hour, End: 14*time.Hour + 5*time.Minute,
		State: availability.S4,
	})

	for _, iv := range tr.Intervals(0) {
		fmt.Printf("available %v for %v\n", iv.Start, iv.Duration())
	}
	tb := tr.MakeTable2() // one machine: each range is that machine's count
	fmt.Printf("events: %d total, %d cpu, %d memory\n",
		tb.Total.Max, tb.CPU.Max, tb.Memory.Max)

	// Output:
	// available 0s for 2h0m0s
	// available 2h10m0s for 11h50m0s
	// available 14h5m0s for 9h55m0s
	// events: 2 total, 1 cpu, 1 memory
}

// ExampleBuilder converts detector transitions into closed events.
func ExampleBuilder() {
	b := trace.NewBuilder(7)
	b.OnTransition(availability.Transition{
		At: time.Hour, From: availability.S1, To: availability.S3, LH: 0.9,
	})
	ev := b.OnTransition(availability.Transition{
		At: 90 * time.Minute, From: availability.S3, To: availability.S1, LH: 0.1,
	})
	fmt.Printf("machine %d unavailable (%v) for %v\n", ev.Machine, ev.State, ev.Duration())
	// Output:
	// machine 7 unavailable (S3(cpu-unavail)) for 30m0s
}
