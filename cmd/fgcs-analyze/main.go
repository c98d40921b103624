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

	"repro/internal/cli"
	"repro/internal/sim"
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
	cli.Parse()

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
			fmt.Println(a.Table2().Format())
		}
		if want("fig6") {
			fmt.Println(trace.FormatFigure6(a.IntervalECDF(sim.Weekday), a.IntervalECDF(sim.Weekend)))
		}
		if want("fig7") {
			fmt.Println(trace.FormatFigure7(a.HourlyOccurrences(sim.Weekday), a.HourlyOccurrences(sim.Weekend)))
		}
		return
	}

	tr, err := loadTrace(*traceFile)
	if err != nil {
		log.Fatal(err)
	}

	if want("table2") {
		fmt.Println(tr.MakeTable2().Format())
	}
	if want("fig6") {
		fmt.Println(trace.FormatFigure6(tr.IntervalECDFs()))
	}
	if want("fig7") {
		fmt.Println(trace.FormatFigure7(tr.HourlyOccurrences(sim.Weekday), tr.HourlyOccurrences(sim.Weekend)))
	}
	if want("summary") {
		fmt.Println("Dependability summary (extension; not in the paper)")
		fmt.Print(tr.FormatSummary())
	}
	if want("acf") {
		fmt.Println(tr.FormatPeriodicity())
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
