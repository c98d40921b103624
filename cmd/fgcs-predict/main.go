// Command fgcs-predict evaluates the availability predictors the paper
// motivates (Section 5.3 / future work) and, with -sched, runs the
// proactive guest-job placement comparison built on them.
//
// Usage:
//
//	fgcs-predict                         # predictor accuracy comparison
//	fgcs-predict -window 6h -train 35
//	fgcs-predict -curve                  # accuracy vs history length
//	fgcs-predict -sched -jobs 300        # placement-policy comparison
//	fgcs-predict -sched -migrate         # add proactive mid-job migration
//	fgcs-predict -trace trace.fgcb
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/gsched"
	"repro/internal/predict"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fgcs-predict: ")

	var (
		traceFile = flag.String("trace", "", "binary trace file written by fgcs-testbed (empty = simulate a testbed)")
		trainDays = flag.Int("train", 28, "training prefix in days")
		window    = flag.Duration("window", 3*time.Hour, "prediction window")
		sched     = flag.Bool("sched", false, "also run the proactive-scheduling comparison")
		migrate   = flag.Bool("migrate", false, "with -sched, add the proactive-migration variant")
		curve     = flag.Bool("curve", false, "also print the accuracy-vs-history learning curve")
		calib     = flag.Bool("calibration", false, "also print the reliability diagram")
		windows   = flag.Bool("windows", false, "also print the window-length sensitivity sweep")
		jobs      = flag.Int("jobs", 400, "guest jobs for -sched")
		spread    = flag.Float64("spread", 0.8, "machine heterogeneity for the simulated testbed")
		seed      = flag.Int64("seed", 2005, "simulation seed")
	)
	cli.Parse()
	if *migrate && !*sched {
		fmt.Fprintln(os.Stderr, "fgcs-predict: -migrate adds a variant to the -sched comparison; give -sched too")
		os.Exit(2)
	}

	tr, err := loadTrace(*traceFile, *spread, *seed)
	if err != nil {
		log.Fatal(err)
	}

	ev, err := predict.Evaluate(tr, predict.DefaultPredictors(), predict.EvalConfig{
		TrainDays: *trainDays,
		Window:    *window,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ev.Format())

	if *curve {
		points, err := predict.LearningCurve(tr,
			func() predict.Predictor { return &predict.HistoryWindow{Trim: 0.1} },
			[]int{7, 14, 21, 28, 42}, predict.EvalConfig{Window: *window})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(predict.FormatLearningCurve(points))
	}

	if *calib {
		bins, err := predict.Calibration(tr, &predict.HistoryWindow{Trim: 0.1},
			predict.EvalConfig{TrainDays: *trainDays, Window: *window}, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(predict.FormatCalibration(bins))
	}

	if *windows {
		scores, err := predict.WindowSensitivity(tr,
			func() predict.Predictor { return &predict.HistoryWindow{Trim: 0.1} },
			[]time.Duration{time.Hour, 3 * time.Hour, 6 * time.Hour, 12 * time.Hour},
			predict.EvalConfig{TrainDays: *trainDays})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(predict.FormatWindowSensitivity(scores))
	}

	if *sched {
		cfg := gsched.DefaultConfig()
		cfg.Jobs = *jobs
		cfg.TrainDays = *trainDays
		truth := predict.NewTraceHistory(tr)
		results, err := gsched.Compare(truth, gsched.DefaultPolicies(tr, cfg, *seed), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *migrate {
			pol := gsched.TrainedPredictive(tr, cfg)
			mig, err := gsched.SimulateMigrating(truth, pol, pol, cfg, gsched.DefaultMigrationConfig())
			if err != nil {
				log.Fatal(err)
			}
			results = append(results, mig)
		}
		fmt.Println(gsched.FormatResults(results))
	}
}

func loadTrace(path string, spread float64, seed int64) (*trace.Trace, error) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "no -trace given; simulating a testbed")
		cfg := testbed.DefaultConfig()
		cfg.Seed = seed
		cfg.Workload.MachineRateSpread = spread
		return testbed.Run(cfg)
	}
	return trace.ReadFile(path)
}
