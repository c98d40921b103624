// Labtestbed: run a scaled-down version of the paper's three-month trace
// study — simulate a student-lab testbed, collect the unavailability trace
// through the monitor/detector pipeline, and print the Table 2 / Figure 6 /
// Figure 7 analyses as cmd/fgcs-analyze does. Note the updatedb spike in
// Figure 7's hour 5: one event per machine.
//
//	go run ./examples/labtestbed
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	cfg := testbed.DefaultConfig()
	cfg.Machines = 8
	cfg.Days = 28
	fmt.Printf("simulating %d machines for %d days...\n\n", cfg.Machines, cfg.Days)

	tr, err := testbed.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(tr.MakeTable2().Format())
	fmt.Println(trace.FormatFigure6(tr.IntervalECDFs()))
	fmt.Print(trace.FormatFigure7(tr.HourlyOccurrences(sim.Weekday), tr.HourlyOccurrences(sim.Weekend)))
}
