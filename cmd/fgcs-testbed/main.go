// Command fgcs-testbed simulates the paper's production testbed — 20
// student-lab machines traced for three months — and writes the resulting
// unavailability trace to disk: the columnar binary codec (FGCB v2, full
// metadata) or CSV events.
//
// Usage:
//
//	fgcs-testbed -out trace.fgcb
//	fgcs-testbed -machines 10 -days 30 -format csv -out trace.csv
//	fgcs-testbed -machines 1000 -days 365 -shard-dir shards/ -shard-size 100
//	fgcs-testbed -scenario spot -machines 200 -days 30 -out spot.fgcb
//
// With -scenario the trace comes from the semi-Markov generative fleet
// models (internal/markov) instead of the process-level simulator:
// enterprise diurnal desktops, spot-style mass preemption, multicore
// contention, container-dense hosts, or lab-fitted (a model fitted from a
// pilot run of this testbed).
//
// With -shard-dir the fleet is simulated in bounded-memory shards, each
// written as one v2 block file (shard-0000.fgcb, shard-0001.fgcb, ...) that
// fgcs-analyze -shards scans with a worker pool. Peak memory then scales
// with -shard-size, not the fleet, so arbitrarily large testbeds fit.
//
// Flags are validated, and the fleet simulated, before any file is created,
// so a mistyped flag never clobbers an existing trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fgcs-testbed: ")

	var (
		machines    = flag.Int("machines", 20, "number of lab machines")
		days        = flag.Int("days", 92, "traced days")
		seed        = flag.Int64("seed", 2005, "simulation seed")
		spread      = flag.Float64("spread", 0, "machine heterogeneity (0 = paper-like homogeneous lab)")
		profile     = flag.String("profile", "lab", "workload profile: lab (paper) or enterprise (paper's future work)")
		scenario    = flag.String("scenario", "", "generate a markov scenario fleet instead of simulating (enterprise, spot, multicore, container-dense, lab-fitted)")
		format      = flag.String("format", "binary2", "output format: binary2 (columnar block codec, full metadata) or csv (events only)")
		out         = flag.String("out", "-", "output file (- = stdout)")
		shardDir    = flag.String("shard-dir", "", "write v2 block shard files into this directory instead of a single trace")
		shardSize   = flag.Int("shard-size", 100, "machines per shard with -shard-dir")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz and pprof on this address while simulating (e.g. 127.0.0.1:9090)")
	)
	cli.Parse()

	cfg := testbed.DefaultConfig()
	cfg.Machines = *machines
	cfg.Days = *days
	cfg.Seed = *seed
	switch *profile {
	case "lab":
	case "enterprise":
		cfg.Workload = testbed.EnterpriseParams()
	default:
		log.Fatalf("unknown profile %q (want lab or enterprise)", *profile)
	}
	cfg.Workload.MachineRateSpread = *spread
	if *format != "binary2" && *format != "csv" {
		log.Fatalf("unknown format %q (want binary2 or csv)", *format)
	}
	if *scenario != "" && *shardDir != "" {
		log.Fatal("-scenario and -shard-dir are mutually exclusive")
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		srv, err := obs.StartServer(*metricsAddr, obs.NewMux(reg, map[string]string{"component": "fgcs-testbed"}))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving metrics on http://%s/metrics", srv.Addr())
	}

	if *shardDir != "" {
		if err := runSharded(cfg, *shardDir, *shardSize); err != nil {
			log.Fatal(err)
		}
		return
	}

	var tr *trace.Trace
	var err error
	if *scenario != "" {
		tr, err = testbed.ScenarioTrace(cfg, *scenario)
	} else {
		tr, err = testbed.Run(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	if *format == "csv" {
		err = tr.WriteCSV(w)
	} else {
		err = tr.WriteBlocks(w, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d events over %.0f machine-days\n",
		len(tr.Events), tr.MachineDays())
}

// runSharded streams the fleet through the bounded-memory runner into one
// v2 block file per shard. The directory is made when the first shard
// opens — after RunSharded has validated the configuration.
func runSharded(cfg testbed.Config, dir string, shardSize int) error {
	shards := 0
	sink := testbed.NewEncoderSinkV2(cfg, nil, func(shard int) (io.WriteCloser, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		shards++
		return os.Create(filepath.Join(dir, fmt.Sprintf("shard-%04d.fgcb", shard)))
	})
	if err := testbed.RunSharded(cfg, shardSize, sink); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d shard files to %s (%d machines x %d days, %d per shard)\n",
		shards, dir, cfg.Machines, cfg.Days, shardSize)
	return nil
}
