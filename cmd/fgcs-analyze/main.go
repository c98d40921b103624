// Command fgcs-analyze reproduces the paper's trace analyses — Table 2
// (unavailability by cause), Figure 6 (availability-interval CDF) and
// Figure 7 (per-hour occurrence profile) — from a trace file written by
// fgcs-testbed, or from a freshly simulated testbed when no file is given.
//
// Usage:
//
//	fgcs-analyze -trace trace.fgcb
//	fgcs-analyze -report fig6
//	fgcs-analyze                     # simulate the default testbed inline
//	fgcs-analyze -shards shards/     # scan a directory of shard files
//
// -trace accepts an FGCB v2 file, as written by fgcs-testbed -out, read
// whole (so -trace /dev/stdin works). -shards scans a directory of v2 block shard files
// written by fgcs-testbed -shard-dir: the files are split at block-summary
// machine boundaries and scanned by GOMAXPROCS workers whose partial
// analyzers merge into a result bit-identical to one worker's (GOMAXPROCS=1
// is serial). Memory stays bounded however large the fleet is, so the
// table2/fig6/fig7 reports scale to fleets that could never be loaded
// whole; a shard cut short is refused by name rather than analyzed as far
// as it goes. The summary and acf reports need the full trace in memory and
// are not available with -shards.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fgcs-analyze: ")

	var (
		traceFile = flag.String("trace", "", "binary trace file (empty = simulate the default testbed)")
		shardDir  = flag.String("shards", "", "directory of v2 block shard files to scan (bounded memory)")
		report    = flag.String("report", "all", "report: table2, fig6, fig7, summary, acf, all")
	)
	flag.Parse()

	switch *report {
	case "all", "table2", "fig6", "fig7", "summary", "acf":
	default:
		fmt.Fprintf(os.Stderr, "unknown report %q\n", *report)
		flag.Usage()
		os.Exit(2)
	}
	want := func(name string) bool { return *report == "all" || *report == name }

	if *shardDir != "" {
		if *traceFile != "" {
			log.Fatal("-trace and -shards are mutually exclusive")
		}
		if *report == "summary" || *report == "acf" {
			log.Fatalf("report %q needs the full trace in memory; not available with -shards", *report)
		}
		a, err := analyzeShards(*shardDir)
		if err != nil {
			log.Fatal(err)
		}
		if want("table2") {
			printTable2(a.Table2())
		}
		if want("fig6") {
			printFigure6(a.IntervalECDF(sim.Weekday), a.IntervalECDF(sim.Weekend))
		}
		if want("fig7") {
			printFigure7(a.HourlyOccurrences(sim.Weekday), a.HourlyOccurrences(sim.Weekend))
		}
		return
	}

	tr, err := loadTrace(*traceFile)
	if err != nil {
		log.Fatal(err)
	}

	if want("table2") {
		printTable2(tr.MakeTable2())
	}
	if want("fig6") {
		printFigure6(tr.IntervalECDFs())
	}
	if want("fig7") {
		printFigure7(tr.HourlyOccurrences(sim.Weekday), tr.HourlyOccurrences(sim.Weekend))
	}
	if want("summary") {
		fmt.Println("Dependability summary (extension; not in the paper)")
		fmt.Print(tr.FormatSummary())
	}
	if want("acf") {
		printPeriodicity(tr)
	}
}

// analyzeShards scans a directory of v2 block shard files on GOMAXPROCS
// workers.
func analyzeShards(dir string) (*trace.StreamAnalyzer, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.fgcb"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.fgcb shard files in %s", dir)
	}
	sort.Strings(paths)
	a, err := trace.AnalyzeBlockPaths(paths, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "scanned %d events from %d block shards (%.0f machine-days)\n",
		a.Events(), len(paths), a.MachineDays())
	return a, nil
}

func loadTrace(path string) (*trace.Trace, error) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "no -trace given; simulating the default 20x92 testbed")
		return testbed.Run(testbed.DefaultConfig())
	}
	return trace.ReadFile(path)
}

func printTable2(tb trace.Table2) {
	fmt.Println("Table 2 — resource unavailability due to different causes (per machine)")
	fmt.Printf("%-12s %-12s %-18s %-18s %-10s\n", "", "total", "cpu contention", "mem contention", "URR")
	fmt.Printf("%-12s %4d-%-7d %6d-%-11d %6d-%-11d %3d-%-6d\n", "frequency",
		tb.Total.Min, tb.Total.Max, tb.CPU.Min, tb.CPU.Max,
		tb.Memory.Min, tb.Memory.Max, tb.URR.Min, tb.URR.Max)
	pct := func(lo, hi float64) string { return fmt.Sprintf("%.0f%%-%.0f%%", lo*100, hi*100) }
	fmt.Printf("%-12s %-12s %-18s %-18s %-10s\n", "percentage", "100%",
		pct(tb.CPUPct[0], tb.CPUPct[1]),
		pct(tb.MemoryPct[0], tb.MemoryPct[1]),
		pct(tb.URRPct[0], tb.URRPct[1]))
	fmt.Printf("URR from reboots (outage < %v): %.0f%%  (paper: ~90%%)\n\n", tb.RebootCutoff, tb.RebootShare*100)
}

func printFigure6(wd, we *stats.ECDF) {
	fmt.Println("Figure 6 — cumulative distribution of availability-interval lengths")
	fmt.Printf("%-8s %10s %10s\n", "hours", "weekday", "weekend")
	grid := []float64{1.0 / 12, 0.5, 1, 2, 3, 4, 5, 6, 8, 10, 12}
	for _, h := range grid {
		fmt.Printf("%-8.2f %9.1f%% %9.1f%%\n", h, wd.At(h)*100, we.At(h)*100)
	}
	fmt.Printf("mean interval: weekday %.2f h, weekend %.2f h (paper: ~3 h / >5 h)\n",
		wd.Mean(), we.Mean())
	fmt.Printf("intervals < 5 min: weekday %.1f%% (paper: ~5%%)\n\n", wd.At(1.0/12)*100)
}

func printPeriodicity(tr *trace.Trace) {
	series := tr.HourlyCountSeries()
	fmt.Println("Failure-series autocorrelation (the predictability claim, quantified)")
	for _, lag := range []int{6, 11, 24, 48, 24 * 7} {
		fmt.Printf("  lag %4dh: %+.3f\n", lag, stats.AutoCorrelation(series, lag))
	}
	fmt.Println()
}

func printFigure7(weekday, weekend []stats.Summary) {
	for _, day := range []struct {
		dt   sim.DayType
		sums []stats.Summary
	}{{sim.Weekday, weekday}, {sim.Weekend, weekend}} {
		fmt.Printf("Figure 7 — unavailability occurrences per hour (%ss)\n", day.dt)
		fmt.Printf("%-6s %8s %8s %8s  %s\n", "hour", "mean", "min", "max", "")
		for h, s := range day.sums {
			bar := strings.Repeat("#", int(s.Mean+0.5))
			// The paper labels hours 1..24 where hour i covers (i-1, i).
			fmt.Printf("%-6d %8.1f %8.0f %8.0f  %s\n", h+1, s.Mean, s.Min, s.Max, bar)
		}
		fmt.Println()
	}
}
