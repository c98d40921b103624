package ishare

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/availability"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/simos"
	"repro/internal/workload"
)

// NodeConfig describes a published resource.
type NodeConfig struct {
	// Name is the node's registry name.
	Name string
	// Machine is the simulated machine the node publishes.
	Machine simos.MachineConfig
	// Detector configures the availability detector.
	Detector availability.Config
	// MonitorPeriod is the virtual sampling period while jobs run.
	MonitorPeriod time.Duration
	// HostLoad is the initial synthetic host load.
	HostLoad float64
	// InteractiveHost, when set, runs a Musbus-style interactive session
	// as the host workload instead of a flat duty cycle; HostLoad is then
	// ignored.
	InteractiveHost bool
	// RegistryAddr, when set, makes the node register and heartbeat.
	RegistryAddr string
	// RegistryAddrs lists the shards of a scaled-out registry; the node
	// routes its registration and heartbeats to the shard owning its name
	// on the consistent-hash ring. When set it takes precedence over
	// RegistryAddr.
	RegistryAddrs []string
	// HeartbeatEvery is the wall-clock heartbeat interval.
	HeartbeatEvery time.Duration
	// HeartbeatJitter spreads each heartbeat interval (and each backoff
	// step) by ±this fraction, deseeding the synchronized heartbeat bursts
	// a fleet restarted together would otherwise aim at one shard. The
	// node's own name seeds the jitter, so a given node's schedule is
	// reproducible. Default 0.1; negative disables.
	HeartbeatJitter float64
	// HeartbeatMaxBackoff caps the backoff between heartbeat attempts
	// while the registry is unreachable (default 16× HeartbeatEvery).
	// Local jobs keep running throughout; the node re-registers with
	// backoff when the registry returns.
	HeartbeatMaxBackoff time.Duration
	// MaxJobVirtual caps how much virtual time one submission may occupy.
	MaxJobVirtual time.Duration
	// Dialer overrides the TCP dial path for registration and heartbeats
	// (nil = plain TCP). Fault injectors hook in here.
	Dialer Dialer
	// Limits bounds each served protocol exchange.
	Limits Limits
	// Gossip, when set, enables peer-to-peer availability gossip: the node
	// answers "gossip" exchanges and (if the config carries an Interval)
	// runs its own anti-entropy loop. Self, Dialer and Limits default to
	// the node's own.
	Gossip *GossipConfig
	// CrashAtVirtual, when positive, is a fault-injection hook: the node
	// crashes — drops in-flight connections without replying, stops
	// heartbeating and closes its listener — the first time its virtual
	// clock reaches this value. This reproduces the paper's S5 (URR): the
	// FGCS service dies with the host, mid-job.
	CrashAtVirtual time.Duration
	// Metrics, when set, receives the node's counters (jobs by outcome,
	// dedup hits, suspensions, heartbeat failures) labeled with the node's
	// name, so many nodes can share one registry and one /metrics endpoint.
	Metrics *obs.Registry
	// Logger receives structured job-lifecycle events carrying the
	// submission's trace ID. Nil discards them.
	Logger *slog.Logger
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Name == "" {
		c.Name = "node"
	}
	if c.Machine.RAM == 0 {
		c.Machine = simos.LinuxLabMachine(1)
	}
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = 5 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.HeartbeatMaxBackoff == 0 {
		c.HeartbeatMaxBackoff = 16 * c.HeartbeatEvery
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.1
	}
	if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0
	}
	if len(c.RegistryAddrs) > 0 {
		c.RegistryAddr = "" // shard routing owns registry traffic
	}
	if c.MaxJobVirtual == 0 {
		c.MaxJobVirtual = 24 * time.Hour
	}
	return c
}

// Node is a published FGCS resource: a machine plus the non-intrusive
// monitoring stack, reachable over TCP.
type Node struct {
	cfg    NodeConfig
	met    *nodeMetrics // nil when NodeConfig.Metrics is nil
	log    *slog.Logger
	ring   *ShardRing // nil for single-registry deployments
	gossip *Gossiper  // nil unless NodeConfig.Gossip is set
	hbRand *rand.Rand // heartbeat jitter source, seeded by the node name

	mu        sync.Mutex
	eng       *monitor.Engine
	machine   *simos.Machine // eng's machine
	host      *simos.Process
	crashed   bool
	done      map[string]JobResult
	execs     map[string]int
	lastState string
	lastLoad  float64
	gen       int64

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewNode starts a node listening on addr and, if configured, registers it
// with the registry and begins heartbeating.
func NewNode(addr string, cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	eng, err := monitor.NewEngine(monitor.EngineConfig{
		Machine:  cfg.Machine,
		Monitor:  monitor.Config{Period: cfg.MonitorPeriod, SmoothWindow: 1},
		Detector: cfg.Detector,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ishare: node listen: %w", err)
	}
	n := &Node{
		cfg:       cfg,
		log:       loggerOrDiscard(cfg.Logger).With("node", cfg.Name),
		hbRand:    rand.New(rand.NewSource(int64(fnv64a(cfg.Name)))),
		eng:       eng,
		machine:   eng.Machine(),
		ln:        ln,
		done:      make(map[string]JobResult),
		execs:     make(map[string]int),
		lastState: eng.State().String(),
		gen:       1,
		closed:    make(chan struct{}),
	}
	if len(cfg.RegistryAddrs) > 0 {
		n.ring, err = NewShardRing(cfg.RegistryAddrs, 0)
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		n.met = newNodeMetrics(cfg.Metrics, cfg.Name)
	}
	n.setHostLocked(cfg.HostLoad, 300*simos.MB)

	if cfg.Gossip != nil {
		gcfg := *cfg.Gossip
		gcfg.Self = n.selfDigest
		if gcfg.Dialer == nil {
			gcfg.Dialer = cfg.Dialer
		}
		if gcfg.Limits == (Limits{}) {
			gcfg.Limits = cfg.Limits
		}
		if gcfg.Seed == 0 {
			gcfg.Seed = int64(fnv64a(cfg.Name))
		}
		n.gossip = NewGossiper(gcfg)
		n.gossip.Start()
	}

	n.wg.Add(1)
	go n.acceptLoop()

	if n.hasRegistry() {
		if err := n.register(); err != nil {
			n.Close()
			return nil, err
		}
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	return n, nil
}

// hasRegistry reports whether the node was configured to publish itself.
func (n *Node) hasRegistry() bool {
	return n.cfg.RegistryAddr != "" || n.ring != nil
}

// registryAddr resolves where this node's registry traffic goes: the ring
// shard owning its name, or the single configured registry.
func (n *Node) registryAddr() string {
	if n.ring != nil {
		return n.ring.Addr(n.cfg.Name)
	}
	return n.cfg.RegistryAddr
}

// Gossiper returns the node's gossip store (nil unless enabled).
func (n *Node) Gossiper() *Gossiper { return n.gossip }

// selfDigest is the node's own availability digest: its last observed
// state and host load, with a generation that advances on state changes.
func (n *Node) selfDigest() NodeDigest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeDigest{
		Name: n.cfg.Name, Addr: n.Addr(),
		State: n.lastState, Load: n.lastLoad, Gen: n.gen,
		UnixMS: time.Now().UnixMilli(),
	}
}

// noteStateLocked records the latest availability observation for
// heartbeat digests and gossip; the generation advances when the state
// class changes. Caller holds n.mu.
func (n *Node) noteStateLocked(state availability.State, hostCPU float64) {
	s := state.String()
	if s != n.lastState {
		n.gen++
	}
	n.lastState = s
	n.lastLoad = hostCPU
}

// Addr returns the node's dial address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the node (its heartbeats cease, which the registry will
// eventually report as URR).
func (n *Node) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	err := n.ln.Close()
	n.wg.Wait()
	if n.gossip != nil {
		n.gossip.Close()
	}
	return err
}

// ExecutionCounts reports, per job ID, how many times a submission ran to
// completion on this node. It exists for exactly-once assertions in fault
// tests; IDs that were deduplicated count once.
func (n *Node) ExecutionCounts() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]int, len(n.execs))
	for id, c := range n.execs {
		out[id] = c
	}
	return out
}

// rpc sends one registry-bound request through the node's dialer to the
// shard owning this node's name.
func (n *Node) rpc(req Request, timeout time.Duration) (*Response, error) {
	lim := n.cfg.Limits.withDefaults()
	return roundTrip(context.Background(), n.cfg.Dialer, n.registryAddr(), req, timeout, lim.MaxMessageBytes)
}

// digestFields stamps the node's current availability digest onto a
// registry-bound request so discovery can rank it without an Info query.
func (n *Node) digestFields(req Request) Request {
	d := n.selfDigest()
	req.State, req.Load, req.Gen = d.State, d.Load, d.Gen
	return req
}

func (n *Node) register() error {
	resp, err := n.rpc(n.digestFields(Request{Op: "register", Name: n.cfg.Name, Addr: n.Addr()}), 2*time.Second)
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("ishare: register rejected: %s", resp.Error)
	}
	return nil
}

// jitterHB spreads one heartbeat delay by ±HeartbeatJitter.
func (n *Node) jitterHB(d time.Duration) time.Duration {
	f := n.cfg.HeartbeatJitter
	if f <= 0 || d <= 0 {
		return d
	}
	// u in [-1, 1): the node-name-seeded source makes the schedule
	// reproducible per node while decorrelating nodes from each other.
	u := 2*n.hbRand.Float64() - 1
	j := time.Duration(float64(d) * (1 + f*u))
	if j <= 0 {
		j = time.Millisecond
	}
	return j
}

// heartbeatLoop keeps the registry's liveness view fresh. When the
// registry is unreachable the node degrades gracefully: local jobs keep
// running, heartbeat attempts back off exponentially (capped), and the
// node re-registers as soon as the registry answers again — including the
// case where the registry came back empty and no longer knows the node.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	interval := n.cfg.HeartbeatEvery
	fails := 0
	var shedFloor time.Duration // last shed's retry-after hint
	timer := time.NewTimer(n.jitterHB(interval))
	defer timer.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-timer.C:
		}
		resp, err := n.rpc(n.digestFields(Request{Op: "heartbeat", Name: n.cfg.Name}), time.Second)
		switch {
		case err != nil:
			fails++
			if n.met != nil {
				n.met.heartbeatFailures.Inc()
			}
		case !resp.OK && resp.RetryAfterMS > 0:
			// The registry shed us under overload. Re-registering now would
			// add to the very herd the registry is trying to absorb; back
			// off at least as long as the hint and heartbeat again.
			fails++
			shedFloor = time.Duration(resp.RetryAfterMS) * time.Millisecond
			if n.met != nil {
				n.met.heartbeatFailures.Inc()
			}
		case !resp.OK:
			// The registry answered but has forgotten us: re-register.
			if err := n.register(); err != nil {
				fails++
				if n.met != nil {
					n.met.heartbeatFailures.Inc()
				}
			} else {
				fails = 0
				if n.met != nil {
					n.met.reregisters.Inc()
				}
				n.log.Info("re-registered after registry forgot node")
			}
		default:
			fails = 0
		}
		next := interval
		if fails > 0 {
			next = interval << uint(min(fails, 10))
			if next > n.cfg.HeartbeatMaxBackoff {
				next = n.cfg.HeartbeatMaxBackoff
			}
		}
		if next < shedFloor {
			next = shedFloor
		}
		shedFloor = 0
		timer.Reset(n.jitterHB(next))
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			serveConn(conn, n.cfg.Limits, n.handle)
		}()
	}
}

// setHostLocked replaces the node's synthetic host workload. Caller holds
// no lock for construction; at runtime callers hold n.mu.
func (n *Node) setHostLocked(load float64, mem int64) {
	if n.host != nil {
		n.host.Kill()
	}
	if mem <= 0 {
		mem = 300 * simos.MB
	}
	var b simos.Behavior
	if n.cfg.InteractiveHost {
		b = workload.DefaultInteractiveSession()
	} else {
		b = &workload.DutyCycle{Usage: load, Period: workload.DefaultPeriod, Jitter: 0.1}
	}
	n.host = n.machine.Spawn("host-load", simos.Host, 0, mem, b)
}

// crashNowLocked implements the CrashAtVirtual fault: once the virtual
// clock passes the crash point the node's service is gone — the current
// exchange is dropped mid-stream and the whole node shuts down. Callers
// check it right after the engine's step and before publishing anything
// from that step's observation (reply, digest, metrics), so the detector's
// view of the crossing step never leaves the node.
func (n *Node) crashNowLocked() bool {
	if n.crashed {
		return true
	}
	if n.cfg.CrashAtVirtual > 0 && n.machine.Now() >= n.cfg.CrashAtVirtual {
		n.crashed = true
		if n.met != nil {
			n.met.crashes.Inc()
		}
		n.log.Warn("crash fault fired", "virtual_now", n.machine.Now().String())
		go n.Close()
		return true
	}
	return false
}

func (n *Node) handle(req Request) *Response {
	n.mu.Lock()
	crashed := n.crashed
	n.mu.Unlock()
	if crashed {
		return nil // service is dead: drop without replying
	}
	switch req.Op {
	case "info":
		return n.info()
	case "sethost":
		if err := n.checkMB("host_mem_mb", req.HostMemMB); err != nil {
			return &Response{OK: false, Error: err.Error()}
		}
		n.mu.Lock()
		n.setHostLocked(req.HostLoad, req.HostMemMB*simos.MB)
		n.mu.Unlock()
		return &Response{OK: true}
	case "submit":
		if req.Job == nil {
			return &Response{OK: false, Error: "submit requires a job"}
		}
		return n.submit(*req.Job, req.Trace)
	case "gossip":
		if n.gossip == nil {
			return &Response{OK: false, Error: "gossip not enabled"}
		}
		return n.gossip.HandleRequest(req)
	default:
		return &Response{OK: false, Error: "unknown op " + req.Op}
	}
}

// checkMB validates a size in MiB from the wire before it is scaled to
// bytes, where a large value could wrap: 0 means "use the default", and
// nothing may be negative or exceed the machine's RAM.
func (n *Node) checkMB(field string, mb int64) error {
	if ram := n.machine.Config().RAM / simos.MB; mb < 0 || mb > ram {
		return fmt.Errorf("%s %d outside [0, %d]", field, mb, ram)
	}
	return nil
}

// info advances the machine one monitor period and reports the state.
func (n *Node) info() *Response {
	n.mu.Lock()
	defer n.mu.Unlock()
	obs, state, _, _ := n.eng.Step()
	if n.crashNowLocked() {
		return nil
	}
	n.noteStateLocked(state, obs.HostCPU)
	if n.met != nil {
		n.met.state.Set(float64(state))
	}
	return &Response{OK: true, Info: &NodeStatus{
		State:        state.String(),
		HostCPU:      obs.HostCPU,
		FreeMemMB:    obs.FreeMem / simos.MB,
		VirtualNowMS: int64(n.machine.Now() / time.Millisecond),
	}}
}

// submit runs a guest job under the five-state controller until it
// completes, is killed, or exhausts the virtual-time budget. A job
// carrying an already-completed ID returns the cached result instead of
// re-running; a job carrying a resume offset runs only the remaining work
// and reports cumulative progress.
func (n *Node) submit(spec JobSpec, trace string) *Response {
	if spec.CPUSeconds <= 0 {
		return &Response{OK: false, Error: "job needs positive cpu_seconds"}
	}
	if spec.ResumeCPUSeconds < 0 || spec.ResumeCPUSeconds >= spec.CPUSeconds {
		return &Response{OK: false, Error: fmt.Sprintf(
			"resume offset %.1f outside [0, %.1f)", spec.ResumeCPUSeconds, spec.CPUSeconds)}
	}
	if err := n.checkMB("rss_mb", spec.RSSMB); err != nil {
		return &Response{OK: false, Error: err.Error()}
	}
	rss := spec.RSSMB * simos.MB
	if rss == 0 {
		rss = 64 * simos.MB
	}
	n.mu.Lock()
	defer n.mu.Unlock()

	if spec.ID != "" {
		if cached, ok := n.done[spec.ID]; ok {
			cached.Deduped = true
			if n.met != nil {
				n.met.dedupHits.Inc()
			}
			n.log.Info("submission answered from dedup cache", "trace", trace, "job", spec.ID)
			return &Response{OK: true, Job: &cached}
		}
	}
	n.log.Info("job accepted", "trace", trace, "job", spec.ID,
		"cpu_seconds", spec.CPUSeconds, "resume_cpu_seconds", spec.ResumeCPUSeconds)

	remaining := time.Duration((spec.CPUSeconds - spec.ResumeCPUSeconds) * float64(time.Second))
	work := &workload.FiniteWork{Total: remaining, Usage: 1}
	guest := n.machine.Spawn(spec.Name, simos.Guest, 0, rss, work)
	ctrl := n.eng.AttachGuest(guest)
	defer n.eng.DetachGuest()

	start := n.machine.Now()
	deadline := start + n.cfg.MaxJobVirtual
	result := JobResult{ResumedFrom: spec.ResumeCPUSeconds}
	state := n.eng.State()

	for n.machine.Now() < deadline {
		var obs availability.Observation
		var action availability.Action
		obs, state, action, _ = n.eng.Step()
		if n.crashNowLocked() {
			// The machine is revoked mid-job: the guest dies with the
			// service and the client sees a dropped connection.
			guest.Kill()
			return nil
		}
		n.noteStateLocked(state, obs.HostCPU)
		if action == availability.ActionSuspend {
			result.Suspensions++
			if n.met != nil {
				n.met.suspensions.Inc()
			}
		}
		if !ctrl.GuestAlive() {
			result.Outcome = "killed"
			break
		}
		if !guest.Alive() {
			result.Completed = true
			result.Outcome = "completed"
			break
		}
	}
	if result.Outcome == "" {
		result.Outcome = "timeout"
		guest.Kill()
	}
	result.FinalState = state.String()
	result.GuestCPUSeconds = spec.ResumeCPUSeconds + guest.CPUTime().Seconds()
	result.WallSeconds = (n.machine.Now() - start).Seconds()
	if spec.ID != "" && result.Completed {
		n.done[spec.ID] = result
		n.execs[spec.ID]++
	}
	if n.met != nil {
		n.met.job(n.cfg.Name, result.Outcome).Inc()
		n.met.jobWallSeconds.Observe(result.WallSeconds)
		n.met.state.Set(float64(state)) // S1 == 1 .. S5 == 5
	}
	n.log.Info("job finished", "trace", trace, "job", spec.ID, "outcome", result.Outcome,
		"final_state", result.FinalState, "guest_cpu_seconds", result.GuestCPUSeconds,
		"suspensions", result.Suspensions)
	return &Response{OK: true, Job: &result}
}
