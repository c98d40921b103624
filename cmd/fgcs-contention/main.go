// Command fgcs-contention reproduces the paper's offline resource-contention
// experiments (Section 3.2) on the simulated machine: Table 1 and Figures
// 1(a), 1(b), 2, 3 and 4, plus the derived thresholds Th1/Th2.
//
// Usage:
//
//	fgcs-contention -exp all
//	fgcs-contention -exp fig1a -measure 300s -combos 3
//	fgcs-contention -exp thresholds
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/availability"
	"repro/internal/cli"
	"repro/internal/contention"
	"repro/internal/simos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fgcs-contention: ")

	var (
		exp     = flag.String("exp", "all", "experiment: table1, fig1a, fig1b, fig2, fig3, fig4, thresholds, solaris, all")
		measure = flag.Duration("measure", 240*time.Second, "virtual measurement window per run")
		combos  = flag.Int("combos", 3, "random host-group compositions per point")
		seed    = flag.Int64("seed", 1, "experiment seed")
	)
	cli.Parse()

	opt := contention.DefaultOptions()
	opt.Measure = *measure
	opt.Combos = *combos
	opt.Seed = *seed

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("table1", func() error {
		fmt.Println(contention.Table1())
		return nil
	})
	run("fig1a", func() error {
		res, err := contention.RunFigure1(opt, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	})
	run("fig1b", func() error {
		res, err := contention.RunFigure1(opt, availability.LowestNice)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	})
	run("fig2", func() error {
		res, err := contention.RunFigure2(opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	})
	run("fig3", func() error {
		res, err := contention.RunFigure3(opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		fmt.Printf("mean guest CPU gain at equal priority: %+.1f%% (paper: ~+2%%)\n\n", res.MeanPriorityGain()*100)
		return nil
	})
	run("fig4", func() error {
		res, err := contention.RunFigure4(opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	})
	run("thresholds", func() error {
		th, _, _, err := contention.FindThresholds(opt)
		if err != nil {
			return err
		}
		fmt.Printf("derived thresholds: Th1 = %.0f%%  Th2 = %.0f%%  (paper: 20%% / 60%%)\n",
			th.Th1*100, th.Th2*100)
		return nil
	})
	run("solaris", func() error {
		sopt := opt
		sopt.Machine = simos.SolarisMachine(opt.Seed).WithDefaults()
		sopt.Machine.Sched = simos.SolarisSchedParams()
		th, _, _, err := contention.FindThresholds(sopt)
		if err != nil {
			return err
		}
		fmt.Printf("Solaris-like scheduler: Th1 = %.0f%%  Th2 = %.0f%%  (paper: ~20%% / 22-57%%)\n",
			th.Th1*100, th.Th2*100)
		return nil
	})

	switch *exp {
	case "all", "table1", "fig1a", "fig1b", "fig2", "fig3", "fig4", "thresholds", "solaris":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
