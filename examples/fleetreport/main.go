// Fleetreport: simulate the paper's lab testbed and its proposed
// enterprise follow-up side by side, then print a dependability report for
// each: availability, MTBF/MTTR, state occupancy, how strongly the failure
// series repeats day over day, and what that buys the paper's predictor.
//
//	go run ./examples/fleetreport
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/availability"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() {
	log.SetFlags(0)

	profiles := []struct {
		name string
		cfg  func() testbed.Config
	}{
		{"student lab (the paper's testbed)", func() testbed.Config {
			cfg := testbed.DefaultConfig()
			cfg.Machines = 8
			cfg.Days = 28
			return cfg
		}},
		{"enterprise desktops (the paper's future work)", func() testbed.Config {
			cfg := testbed.DefaultConfig()
			cfg.Machines = 8
			cfg.Days = 28
			cfg.Workload = testbed.EnterpriseParams()
			return cfg
		}},
	}

	for _, p := range profiles {
		fmt.Printf("=== %s ===\n", p.name)
		tr, occ, err := testbed.RunWithOccupancy(p.cfg())
		if err != nil {
			log.Fatal(err)
		}

		fleet := tr.SummarizeFleet()
		fmt.Printf("fleet: %d machines, %d failures, %.2f%% available, MTBF %v, MTTR %v\n",
			fleet.Machines, fleet.Events, fleet.Availability*100,
			fleet.MTBF.Round(time.Minute), fleet.MTTR.Round(time.Second))

		// Mean state occupancy across machines.
		mean := map[availability.State]float64{}
		for _, o := range occ {
			for st, f := range o.Fraction {
				mean[st] += f / float64(len(occ))
			}
		}
		fmt.Printf("state occupancy: S1 %.1f%%  S2 %.1f%%  S3 %.2f%%  S4 %.2f%%  S5 %.2f%%\n",
			mean[availability.S1]*100, mean[availability.S2]*100, mean[availability.S3]*100,
			mean[availability.S4]*100, mean[availability.S5]*100)

		// How repeatable is the failure rhythm?
		series := tr.HourlyCountSeries()
		fmt.Printf("failure-series autocorrelation: lag 24h %.2f, lag 7d %.2f\n",
			stats.AutoCorrelation(series, 24), stats.AutoCorrelation(series, 24*7))

		// And what that predictability buys: the paper's predictor vs the
		// time-blind baseline.
		ev, err := predict.Evaluate(tr, predict.DefaultPredictors(),
			predict.EvalConfig{TrainDays: 14, Window: 3 * time.Hour})
		if err != nil {
			log.Fatal(err)
		}
		hw, _ := ev.ScoreByName("history-window")
		gr, _ := ev.ScoreByName("global-rate")
		fmt.Printf("prediction MAE: history-window %.3f vs global-rate %.3f (%.0f%% better)\n\n",
			hw.MAE, gr.MAE, (1-hw.MAE/gr.MAE)*100)
	}
}
