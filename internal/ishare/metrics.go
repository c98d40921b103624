package ishare

import (
	"context"
	"log/slog"
	"sync"

	"repro/internal/obs"
)

// This file is the observability seam of the networked layer: every
// component (broker, client, node, registry) registers its counters and
// latency histograms in an obs.Registry — caller-supplied so one process
// exports everything on a single /metrics endpoint, or a private registry
// when none is given — and per-job trace IDs ride the protocol so one
// logical submission can be followed across broker rounds, failovers and
// node-side execution in the structured logs of every participant.

// traceKey carries a per-job trace ID in a context.
type traceKey struct{}

// WithTraceID returns a context carrying the given trace ID. The client
// stamps it into every outgoing Request, so all exchanges of one logical
// operation share an ID across processes.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFrom extracts the trace ID from a context ("" when absent).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// discardLogger is the default for components whose config carries no
// *slog.Logger: instrumentation must be silent unless asked for.
var discardLogger = slog.New(slog.DiscardHandler)

func loggerOrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discardLogger
	}
	return l
}

// requestSecondsBuckets spans sub-millisecond local exchanges up to the
// multi-second retry budgets of partitioned registries.
var requestSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30}

// brokerMetrics are the broker's recovery counters, registry-backed so
// they are atomic (Metrics() snapshots race-free) and scrapable.
type brokerMetrics struct {
	staleServes     *obs.Counter
	registryErrors  *obs.Counter
	shardErrors     *obs.Counter
	failovers       *obs.Counter
	sameNodeRetries *obs.Counter
	resubmissions   *obs.Counter
	dedupHits       *obs.Counter
	breakerOpens    *obs.Counter
	breakerShorts   *obs.Counter
	submissions     *obs.Counter
	completions     *obs.Counter
	submitSeconds   *obs.Histogram
	discoverSeconds *obs.Histogram
}

func newBrokerMetrics(r *obs.Registry) *brokerMetrics {
	return &brokerMetrics{
		staleServes:     r.Counter("fgcs_broker_stale_serves_total", "per-shard candidate lists served from the cached node list during registry partitions"),
		registryErrors:  r.Counter("fgcs_broker_registry_errors_total", "discovery attempts that failed with no usable cache on any shard"),
		shardErrors:     r.Counter("fgcs_broker_shard_errors_total", "individual shard list calls that failed during fan-out discovery"),
		failovers:       r.Counter("fgcs_broker_failovers_total", "submissions moved to the next candidate after a transport failure"),
		sameNodeRetries: r.Counter("fgcs_broker_same_node_retries_total", "dedup-safe immediate retries on the same node after a dropped response"),
		resubmissions:   r.Counter("fgcs_broker_resubmissions_total", "jobs resubmitted from a checkpoint after being killed or timing out"),
		dedupHits:       r.Counter("fgcs_broker_dedup_hits_total", "submissions answered from a node's completed-job cache"),
		breakerOpens:    r.Counter("fgcs_broker_breaker_opens_total", "per-shard circuit breakers tripped open after consecutive failures"),
		breakerShorts:   r.Counter("fgcs_broker_breaker_short_circuits_total", "shard list calls skipped because the shard's breaker was open"),
		submissions:     r.Counter("fgcs_broker_submissions_total", "SubmitBest calls"),
		completions:     r.Counter("fgcs_broker_completions_total", "SubmitBest calls that returned a completed job"),
		submitSeconds:   r.Histogram("fgcs_broker_submit_seconds", "wall time of one SubmitBest call", requestSecondsBuckets),
		discoverSeconds: r.Histogram("fgcs_broker_discover_seconds", "wall time of one fan-out discovery across all shards", requestSecondsBuckets),
	}
}

// clientMetrics count the client's request traffic per operation. An op's
// request counter and latency histogram are resolved on its first exchange
// and kept, as registryMetrics keeps its request counters: a registry
// lookup sorts labels, builds a key and takes a lock, which every exchange
// would otherwise pay twice. Retries and failures, off the hot path, are
// looked up when they happen, so their series appear with the first of
// them.
type clientMetrics struct {
	reg   *obs.Registry
	ops   sync.Map // op -> *clientOpMetrics
	dials *obs.Counter
}

type clientOpMetrics struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

func newClientMetrics(r *obs.Registry) *clientMetrics {
	return &clientMetrics{reg: r, dials: r.Counter("fgcs_client_dials_total", "connections dialed; an exchange over a reused idle connection dials none")}
}

func (m *clientMetrics) op(op string) *clientOpMetrics {
	if v, ok := m.ops.Load(op); ok {
		return v.(*clientOpMetrics)
	}
	v, _ := m.ops.LoadOrStore(op, &clientOpMetrics{
		requests: m.reg.Counter("fgcs_client_requests_total", "logical client exchanges by operation", obs.L("op", op)),
		latency:  m.reg.Histogram("fgcs_client_request_seconds", "wall time of one logical exchange including retries", requestSecondsBuckets, obs.L("op", op)),
	})
	return v.(*clientOpMetrics)
}

func (m *clientMetrics) retry(op string) *obs.Counter {
	return m.reg.Counter("fgcs_client_retries_total", "transport-level retries of idempotent operations", obs.L("op", op))
}

func (m *clientMetrics) failure(op string) *obs.Counter {
	return m.reg.Counter("fgcs_client_failures_total", "exchanges that exhausted their attempt budget", obs.L("op", op))
}

// nodeMetrics count a node agent's job lifecycle and liveness machinery.
type nodeMetrics struct {
	reg *obs.Registry

	dedupHits         *obs.Counter
	suspensions       *obs.Counter
	crashes           *obs.Counter
	heartbeatFailures *obs.Counter
	reregisters       *obs.Counter
	state             *obs.Gauge
	jobWallSeconds    *obs.Histogram
}

func newNodeMetrics(r *obs.Registry, name string) *nodeMetrics {
	node := obs.L("node", name)
	m := &nodeMetrics{
		reg:               r,
		dedupHits:         r.Counter("fgcs_node_dedup_hits_total", "submissions answered from the completed-job cache", node),
		suspensions:       r.Counter("fgcs_node_suspensions_total", "transient-spike suspensions applied to guest jobs", node),
		crashes:           r.Counter("fgcs_node_crashes_total", "CrashAtVirtual faults fired", node),
		heartbeatFailures: r.Counter("fgcs_node_heartbeat_failures_total", "heartbeat attempts that failed transport, were refused or failed re-registration", node),
		reregisters:       r.Counter("fgcs_node_reregisters_total", "successful re-registrations after the registry forgot the node", node),
		state:             r.Gauge("fgcs_node_state", "last observed availability state (1=S1 .. 5=S5)", node),
		jobWallSeconds:    r.Histogram("fgcs_node_job_wall_seconds", "virtual wall time jobs occupied the node", []float64{1, 10, 60, 300, 900, 3600, 4 * 3600, 24 * 3600}, node),
	}
	// Outcome counters are created eagerly so a scrape shows the full
	// family before the first job arrives.
	for _, o := range []string{"completed", "killed", "timeout"} {
		m.job(name, o)
	}
	return m
}

func (m *nodeMetrics) job(name, outcome string) *obs.Counter {
	return m.reg.Counter("fgcs_node_jobs_total", "guest jobs finished by outcome", obs.L("node", name), obs.L("outcome", outcome))
}

// registryMetrics count the discovery service's traffic and liveness view.
type registryMetrics struct {
	requests        map[string]*obs.Counter
	unknownHB       *obs.Counter
	batched         *obs.Counter
	nodes           *obs.Gauge
	alive           *obs.Gauge
	sheds           *obs.Counter
	walAppends      *obs.Counter
	walCompactions  *obs.Counter
	recovered       *obs.Gauge
	forecasts       *obs.Counter
	forecastLatency *obs.Histogram
}

func newRegistryMetrics(r *obs.Registry) *registryMetrics {
	m := &registryMetrics{
		requests:       make(map[string]*obs.Counter),
		unknownHB:      r.Counter("fgcs_registry_unknown_heartbeats_total", "heartbeats from nodes the registry does not know"),
		batched:        r.Counter("fgcs_registry_batched_entries_total", "node entries carried by register_batch and heartbeat_batch requests"),
		nodes:          r.Gauge("fgcs_registry_nodes", "registered nodes"),
		alive:          r.Gauge("fgcs_registry_alive_nodes", "nodes alive at the last list"),
		sheds:          r.Counter("fgcs_registry_sheds_total", "connections shed by admission control with a retry-after hint"),
		walAppends:     r.Counter("fgcs_registry_wal_appends_total", "mutation records appended to the write-ahead log"),
		walCompactions: r.Counter("fgcs_registry_wal_compactions_total", "snapshot-and-truncate compactions of the write-ahead log"),
		recovered:      r.Gauge("fgcs_registry_recovered_records", "WAL and snapshot records replayed at the last startup"),
		forecasts:      r.Counter("fgcs_registry_forecasts_total", "per-node forecasts served by the forecast op"),
		forecastLatency: r.Histogram("fgcs_registry_forecast_latency_seconds",
			"wall-clock latency of one forecast exchange's computation", obs.ExpBuckets(1e-6, 4, 12)),
	}
	for _, op := range []string{"register_batch", "unregister", "heartbeat_batch", "list", "forecast", "unknown"} {
		m.requests[op] = r.Counter("fgcs_registry_requests_total", "registry exchanges by operation", obs.L("op", op))
	}
	return m
}

func (m *registryMetrics) request(op string) {
	c, ok := m.requests[op]
	if !ok {
		c = m.requests["unknown"]
	}
	c.Inc()
}
