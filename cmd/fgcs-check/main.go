// Command fgcs-check runs the differential correctness harness: randomized
// observation sequences are replayed through the naive reference model and
// the optimized detector/controller/testbed paths, which must agree exactly
// (see internal/check). Any divergence is a bug and exits nonzero.
//
// Usage:
//
//	fgcs-check              # the 200 seeds make check runs
//	fgcs-check -seeds 5000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fgcs-check: ")
	seeds := flag.Int("seeds", 200, "number of randomized seeds")
	cli.Parse()
	if *seeds < 1 {
		log.Fatalf("-seeds %d: need at least one seed", *seeds)
	}

	// The harness succeeds only on exact agreement across every seed, so
	// the summary line doubles as the "zero divergence" claim.
	start := time.Now()
	res, err := check.Run(check.Options{
		Seeds: *seeds,
		Progress: func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "check: seed %d/%d\n", done, total)
			}
		},
	})
	if err != nil {
		log.Fatalf("DIVERGENCE: %v", err)
	}
	log.Printf("check passed: %d seeds, %d observations, %d transitions, %d testbed differentials (%d events, %d forecast comparisons), %d generative differentials (%d events, %d boundary predictions), zero divergence in %s",
		res.Seeds, res.Observations, res.Transitions, res.TestbedRuns, res.TestbedEvents, res.ForecastChecks,
		res.MarkovRuns, res.MarkovEvents, res.MarkovChecks, time.Since(start).Round(time.Millisecond))
}
