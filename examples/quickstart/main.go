// Quickstart: build a simulated host machine, run a guest job on it under
// the five-state availability model, and watch the detector manage the
// guest as local users come and go.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/availability"
	"repro/internal/monitor"
	"repro/internal/simos"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// A machine like the paper's testbed boxes: 1.5 GB RAM, Linux
	// thresholds Th1=20%, Th2=60%, 1-minute transient window.
	engine, err := monitor.NewEngine(monitor.EngineConfig{
		Machine: simos.LinuxLabMachine(42),
		Monitor: monitor.Config{Period: 10 * time.Second, SmoothWindow: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	machine := engine.Machine()
	// The engine records nothing; its transitions become unavailability
	// events here.
	recorder := trace.NewBuilder(0)
	var events []trace.Event

	// The guest: a CPU-bound batch job needing 20 minutes of CPU.
	guest := machine.Spawn("guest-job", simos.Guest, 0, 96*simos.MB,
		&workload.FiniteWork{Total: 20 * time.Minute, Usage: 1})
	ctrl := engine.AttachGuest(guest)

	// A local user shows up after 5 minutes and works moderately hard for
	// 10 minutes, then leaves; later a heavy compile pushes the machine
	// over Th2 for a sustained stretch.
	fmt.Println("t=5m   a local user logs in (moderate load, ~40%)")
	fmt.Println("t=15m  the user goes idle")
	fmt.Println("t=18m  a heavy sustained compile starts (~90%)")
	fmt.Println()

	schedule := []struct {
		at    time.Duration
		usage float64
		until time.Duration
	}{
		{5 * time.Minute, 0.40, 15 * time.Minute},
		{18 * time.Minute, 0.90, 40 * time.Minute},
	}
	spawned := 0

	last := engine.State()
	fmt.Printf("t=%-6s state=%v (guest running at nice %d)\n", "0s", last, guest.Nice())
	for machine.Now() < 45*time.Minute {
		if spawned < len(schedule) && machine.Now() >= schedule[spawned].at {
			s := schedule[spawned]
			machine.Spawn(fmt.Sprintf("host-%d", spawned), simos.Host, 0, 200*simos.MB,
				&workload.FiniteWork{
					Total: time.Duration(float64(s.until-s.at) * s.usage),
					Usage: s.usage,
				})
			spawned++
		}
		_, state, action, tr := engine.Step()
		if tr != nil {
			if ev := recorder.OnTransition(*tr); ev != nil {
				events = append(events, *ev)
			}
		}
		if state != last || action > availability.ActionRunDefault {
			fmt.Printf("t=%-6s state=%v action=%v guest: alive=%v nice=%d cpu=%v\n",
				machine.Now().Round(time.Second), state, action,
				ctrl.GuestAlive(), guest.Nice(), guest.CPUTime().Round(time.Second))
			last = state
		}
		if !ctrl.GuestAlive() || !guest.Alive() {
			break
		}
	}

	fmt.Println()
	switch {
	case !ctrl.GuestAlive():
		fmt.Printf("guest was killed after receiving %v of CPU — the resource entered %v\n",
			guest.CPUTime().Round(time.Second), engine.State())
	case !guest.Alive():
		fmt.Printf("guest completed its 20m of work in %v of wall time\n",
			machine.Now().Round(time.Second))
	default:
		fmt.Println("guest still running at the end of the scenario")
	}
	if ev := recorder.Flush(machine.Now()); ev != nil {
		events = append(events, *ev)
	}
	for _, ev := range events {
		fmt.Printf("unavailability: %v from %v to %v (%v)\n",
			ev.State, ev.Start.Round(time.Second), ev.End.Round(time.Second),
			ev.Duration().Round(time.Second))
	}
}
