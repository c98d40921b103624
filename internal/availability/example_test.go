package availability_test

import (
	"fmt"
	"time"

	"repro/internal/availability"
)

// ExampleDetector walks a machine through the five-state model: light
// load, heavy load, a transient spike, and a sustained overload.
func ExampleDetector() {
	det, err := availability.NewDetector(availability.Config{})
	if err != nil {
		panic(err)
	}
	gig := int64(1) << 30

	observe := func(at time.Duration, lh float64) {
		state, _ := det.Observe(availability.Observation{
			At: at, HostCPU: lh, FreeMem: gig, Alive: true,
		})
		fmt.Printf("t=%-4s LH=%.2f -> %v (suspended=%v)\n",
			at, lh, state, det.Suspended())
	}

	observe(0, 0.10)               // light load
	observe(30*time.Second, 0.45)  // heavy load: guest must renice
	observe(60*time.Second, 0.90)  // spike starts: suspend, stay S2
	observe(80*time.Second, 0.10)  // spike subsided within a minute
	observe(120*time.Second, 0.90) // a new spike...
	observe(200*time.Second, 0.90) // ...that persists: S3

	// Output:
	// t=0s   LH=0.10 -> S1(full) (suspended=false)
	// t=30s  LH=0.45 -> S2(lowest-priority) (suspended=false)
	// t=1m0s LH=0.90 -> S2(lowest-priority) (suspended=true)
	// t=1m20s LH=0.10 -> S1(full) (suspended=false)
	// t=2m0s LH=0.90 -> S1(full) (suspended=true)
	// t=3m20s LH=0.90 -> S3(cpu-unavail) (suspended=false)
}
