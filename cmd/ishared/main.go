// Command ishared runs the iShare-like FGCS system: a resource registry, a
// node agent publishing a simulated machine, or a self-contained demo that
// wires a registry, three nodes and a client together and walks through
// discovery, submission, contention and revocation.
//
// Usage:
//
//	ishared -mode demo
//	ishared -mode registry -addr 127.0.0.1:7070
//	ishared -mode node -addr 127.0.0.1:0 -registry 127.0.0.1:7070 -name lab-3 -load 0.3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/ishare"
	"repro/internal/obs"
)

var ctx = context.Background()

// observability bundles the process-wide metrics registry, its HTTP
// server (nil when -metrics-addr is unset) and the structured logger.
type observability struct {
	reg    *obs.Registry
	srv    *obs.Server
	logger *slog.Logger
}

func (o *observability) close() {
	if o.srv != nil {
		o.srv.Close()
	}
}

// startObs builds the process observability: an obs registry served on
// metricsAddr (with /healthz and pprof) when set, and a JSON slog logger
// on stderr at the requested level.
func startObs(metricsAddr, mode string, verbose bool) *observability {
	level := slog.LevelWarn
	if verbose {
		level = slog.LevelInfo
	}
	o := &observability{
		reg:    obs.NewRegistry(),
		logger: slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
	}
	// fgcs_up lets a scrape distinguish "serving, no traffic yet" from
	// "down" without relying on any component counter existing.
	o.reg.Gauge("fgcs_up", "1 while the process is serving").Set(1)
	if metricsAddr == "" {
		return o
	}
	srv, err := obs.StartServer(metricsAddr, obs.NewMux(o.reg, map[string]string{"component": "ishared", "mode": mode}))
	if err != nil {
		log.Fatal(err)
	}
	o.srv = srv
	// The scrape address goes to stdout so scripts (and the CI smoke test)
	// can pick up an ephemeral :0 port.
	fmt.Printf("metrics listening on %s\n", srv.Addr())
	return o
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ishared: ")

	var (
		mode        = flag.String("mode", "demo", "mode: registry, node, demo")
		addr        = flag.String("addr", "127.0.0.1:0", "listen address")
		registry    = flag.String("registry", "", "registry address (node mode)")
		name        = flag.String("name", "node-1", "node name (node mode)")
		load        = flag.Float64("load", 0.1, "initial synthetic host load (node mode)")
		ttl         = flag.Duration("ttl", 2*time.Second, "registry heartbeat TTL")
		deadline    = flag.Duration("io-deadline", 10*time.Second, "per-exchange server I/O deadline")
		maxMsg      = flag.Int64("max-message-bytes", 1<<20, "per-exchange message size bound")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /healthz and pprof on this address (e.g. 127.0.0.1:9090; empty = disabled)")
		verbose     = flag.Bool("v", false, "log structured events at info level (default warn)")
		walDir      = flag.String("wal-dir", "", "registry mode: durability directory; acked registrations are WAL-logged there and recovered on restart (empty = volatile)")
		drain       = flag.Duration("drain", 5*time.Second, "registry mode: how long a SIGTERM/interrupt shutdown waits for in-flight exchanges before closing")
		maxInflight = flag.Int("max-inflight", 0, "registry mode: admission bound on concurrently served exchanges; excess connections queue briefly, then are shed with a retry-after hint (0 = unbounded)")
	)
	cli.Parse()
	// The flags each mode reads besides -mode, -metrics-addr and -v; a mode
	// refuses any other.
	reads, ok := map[string][]string{
		"registry": {"addr", "ttl", "io-deadline", "max-message-bytes", "wal-dir", "drain", "max-inflight"},
		"node":     {"addr", "registry", "name", "load", "io-deadline", "max-message-bytes"},
		"demo":     {"ttl"},
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		flag.Usage()
		os.Exit(2)
	}
	cli.RefuseIgnored("-mode "+*mode, append(reads, "mode", "metrics-addr", "v")...)
	lim := ishare.Limits{MaxMessageBytes: *maxMsg, IODeadline: *deadline}
	o := startObs(*metricsAddr, *mode, *verbose)
	defer o.close()

	switch *mode {
	case "registry":
		runRegistry(*addr, *ttl, lim, *walDir, *drain, *maxInflight, o)
	case "node":
		runNode(*addr, *registry, *name, *load, lim, o)
	case "demo":
		runDemo(*ttl, o)
	}
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// runRegistry serves a registry until SIGTERM or interrupt, then shuts
// down gracefully: stop accepting, drain in-flight exchanges up to the
// drain deadline, fsync the WAL. With -wal-dir a restart over the same
// directory recovers every acked registration before serving again.
func runRegistry(addr string, ttl time.Duration, lim ishare.Limits, walDir string, drain time.Duration, maxInflight int, o *observability) {
	// The handler must be live before the listen announcement: a
	// supervisor that SIGTERMs the instant the address prints must still
	// get a drained exit, not the default kill.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := ishare.RegistryOptions{TTL: ttl, Limits: lim, MaxInflight: maxInflight}
	if walDir != "" {
		opt.WAL = &ishare.WALOptions{Dir: walDir}
	}
	reg, err := ishare.NewRegistryWithOptions(addr, opt)
	if err != nil {
		log.Fatal(err)
	}
	reg.Instrument(o.reg, o.logger)
	if n := reg.RecoveredRecords(); n > 0 {
		fmt.Printf("recovered %d WAL records from %s\n", n, walDir)
	}
	fmt.Printf("registry listening on %s (ttl %v); SIGTERM or ctrl-c to stop\n", reg.Addr(), ttl)

	<-sigCtx.Done()
	stop()
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := reg.Shutdown(drainCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("registry drained and stopped")
}

func runNode(addr, registry, name string, load float64, lim ishare.Limits, o *observability) {
	cfg := ishare.NodeConfig{Name: name, HostLoad: load, Limits: lim, Metrics: o.reg, Logger: o.logger}
	if registry != "" {
		cfg.RegistryAddrs = []string{registry}
	}
	node, err := ishare.NewNode(addr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	fmt.Printf("node %q listening on %s (host load %.2f); ctrl-c to stop\n", name, node.Addr(), load)
	waitForInterrupt()
}

func runDemo(ttl time.Duration, o *observability) {
	reg, err := ishare.NewRegistry("127.0.0.1:0", ttl)
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	reg.Instrument(o.reg, o.logger)
	fmt.Printf("registry up at %s\n", reg.Addr())

	loads := []float64{0.05, 0.40, 0.90}
	var nodes []*ishare.Node
	for i, load := range loads {
		n, err := ishare.NewNode("127.0.0.1:0", ishare.NodeConfig{
			Name:          fmt.Sprintf("lab-%d", i+1),
			RegistryAddrs: []string{reg.Addr()},
			HostLoad:      load,
			Metrics:       o.reg,
			Logger:        o.logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		fmt.Printf("node lab-%d up at %s (host load %.2f)\n", i+1, n.Addr(), load)
	}

	client := &ishare.Client{Shards: []string{reg.Addr()}}
	published, err := client.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndiscovered resources:")
	for _, n := range published {
		st, err := client.Info(ctx, n.Addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s alive=%v state=%s hostCPU=%.2f freeMem=%dMB\n",
			n.Name, n.Alive, st.State, st.HostCPU, st.FreeMemMB)
	}

	fmt.Println("\nbroker placement: submitting through the availability-aware broker:")
	broker := ishare.NewBroker(reg.Addr())
	broker.Obs = o.reg
	broker.Logger = o.logger
	bres, bnode, err := broker.SubmitBest(ctx, ishare.JobSpec{Name: "brokered-job", CPUSeconds: 300, RSSMB: 96})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  broker chose %s: outcome=%s final=%s wall=%.0fs\n",
		bnode.Name, bres.Outcome, bres.FinalState, bres.WallSeconds)

	fmt.Println("\nsubmitting a 10-minute guest job to each node:")
	for i, n := range nodes {
		res, err := client.Submit(ctx, n.Addr(), ishare.JobSpec{Name: "demo-job", CPUSeconds: 600, RSSMB: 128})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  lab-%d: outcome=%-9s final=%s guestCPU=%.0fs wall=%.0fs suspensions=%d\n",
			i+1, res.Outcome, res.FinalState, res.GuestCPUSeconds, res.WallSeconds, res.Suspensions)
	}

	fmt.Println("\nrevoking lab-1 (its owner pulls the machine)...")
	nodes[0].Close()
	time.Sleep(ttl + 500*time.Millisecond)
	published, err = client.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range published {
		fmt.Printf("  %-8s alive=%v\n", n.Name, n.Alive)
	}

	fmt.Println("\nsubmitting through the broker again: placement must avoid the revoked node")
	bres, bnode, err = broker.SubmitBest(ctx, ishare.JobSpec{Name: "post-urr-job", CPUSeconds: 180, RSSMB: 64})
	if err != nil {
		log.Fatal(err)
	}
	m := broker.Metrics()
	fmt.Printf("  broker chose %s: outcome=%s (failovers=%d resubmissions=%d stale-serves=%d)\n",
		bnode.Name, bres.Outcome, m.Failovers, m.Resubmissions, m.StaleServes)
	fmt.Println("\ndemo complete: lab-1's service termination is the URR (S5) observable")
}
