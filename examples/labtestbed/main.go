// Labtestbed: run a scaled-down version of the paper's three-month trace
// study — simulate a student-lab testbed, collect the unavailability trace
// through the monitor/detector pipeline, and print the Table 2 / Figure 6 /
// Figure 7 analyses.
//
//	go run ./examples/labtestbed
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/testbed"
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

	tb := tr.MakeTable2()
	fmt.Printf("unavailability per machine over %d days:\n", cfg.Days)
	fmt.Printf("  total %d-%d  cpu %d-%d  memory %d-%d  URR %d-%d\n",
		tb.Total.Min, tb.Total.Max, tb.CPU.Min, tb.CPU.Max,
		tb.Memory.Min, tb.Memory.Max, tb.URR.Min, tb.URR.Max)
	fmt.Printf("  reboot share of URR: %.0f%%\n\n", tb.RebootShare*100)

	wd, we := tr.IntervalECDFs()
	fmt.Println("availability intervals (the paper's Figure 6):")
	fmt.Printf("  weekday: n=%d mean=%.1fh  <5min=%.1f%%  2-4h=%.0f%%\n",
		wd.N(), wd.Mean(), wd.At(1.0/12)*100, wd.MassBetween(2, 4)*100)
	fmt.Printf("  weekend: n=%d mean=%.1fh  4-8h=%.0f%%\n\n",
		we.N(), we.Mean(), we.MassBetween(4, 8)*100)

	fmt.Println("hourly failure profile, weekdays (the paper's Figure 7;")
	fmt.Println("note the updatedb spike in hour 5 = one event per machine):")
	sums := tr.HourlyOccurrences(sim.Weekday)
	for h, s := range sums {
		bar := ""
		for i := 0; i < int(s.Mean+0.5); i++ {
			bar += "#"
		}
		fmt.Printf("  hour %2d  mean %5.1f  %s\n", h+1, s.Mean, bar)
	}
}
