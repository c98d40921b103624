package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ishare"
	"repro/internal/obs"
)

// The control-plane workloads share one fleet and one registry shape; only
// the timed loop differs. cp-discover reads (no WAL append may happen in
// its window), cp-ingest writes.

// fleetStates is the paper's empirical five-state occupancy, as the load
// driver draws it.
var fleetStates = []struct {
	state string
	p     float64
}{
	{"S1(full)", 0.55},
	{"S2(lowest-priority)", 0.20},
	{"S3(cpu-unavail)", 0.10},
	{"S4(mem-thrash)", 0.05},
	{"S5(machine-unavail)", 0.10},
}

func drawState(r *splitmix) string {
	u, acc := r.float(), 0.0
	for _, s := range fleetStates {
		acc += s.p
		if u < acc {
			return s.state
		}
	}
	return fleetStates[len(fleetStates)-1].state
}

const (
	// forecastScale maps one wall millisecond to one virtual minute, so
	// the forecaster's calendar sees days pass within a run.
	forecastScale = 60_000
	// forecastHorizon is one virtual hour at that scale.
	forecastHorizon = 60 * time.Millisecond
	discoverLimit   = 32
	forecastTop     = 16
	// walCompactEvery is a quarter of the WAL's default 8192 records. At
	// about 400 appends a second and shard the default compacts once in
	// 20 s, so a run would hold one compaction or none by chance; at 2048
	// every run holds several and their cost is part of every sub-window's
	// neighbourhood. The flush policy stays the default.
	walCompactEvery = 2048
)

type fleetNode struct {
	name, addr, state string
	load              float64
	gen               int64
}

// fleetBatch is one shard-routed heartbeat batch. The mutex orders the
// generators that could, in principle, reach the same batch at once.
type fleetBatch struct {
	mu     sync.Mutex
	shard  int
	nodes  []*fleetNode
	sweeps int64
}

type controlPlane struct {
	rc      *runConfig
	sharded *ishare.ShardedRegistry
	obs     *obs.Registry // the shards' instruments
	addrs   []string
	fleet   []*fleetNode
	batches []*fleetBatch
	walDir  string
}

func (cp *controlPlane) close() {
	cp.sharded.Close()
	os.RemoveAll(cp.walDir)
}

func (cp *controlPlane) client(d ishare.Dialer, o *obs.Registry) *ishare.Client {
	return &ishare.Client{Shards: cp.addrs, Dialer: d, Timeout: 10 * time.Second, Obs: o}
}

// generatorClient is one load generator's client: over a tracing dialer of
// its own when spans are recorded, over the default dial otherwise.
func (cp *controlPlane) generatorClient(rec *spanRecorder, tot *netTotals, o *obs.Registry) (*spyDialer, *ishare.Client) {
	if rec == nil {
		return nil, cp.client(nil, o)
	}
	spy := &spyDialer{rec: rec, tot: tot}
	return spy, cp.client(spy, o)
}

// setupControlPlane starts the sharded registry (WAL and forecaster on,
// default flush policy), registers the seeded fleet in batches and runs the
// churned heartbeat sweeps that give the forecaster transitions to hold.
func setupControlPlane(rc *runConfig, dir string) (*controlPlane, error) {
	sz := rc.sizes
	cp := &controlPlane{rc: rc, obs: obs.NewRegistry(), walDir: dir}
	sharded, err := ishare.NewShardedRegistryWithOptions(sz.shards, ishare.RegistryOptions{
		TTL:      10 * time.Minute,
		WAL:      &ishare.WALOptions{Dir: dir, CompactEvery: walCompactEvery},
		Forecast: &ishare.ForecastOptions{Scale: forecastScale},
	})
	if err != nil {
		return nil, err
	}
	cp.sharded = sharded
	sharded.Instrument(cp.obs, nil)
	cp.addrs = sharded.Addrs()

	rng := newSplitmix(rc.seed, 1)
	perShard := make([][]*fleetNode, sz.shards)
	cp.fleet = make([]*fleetNode, sz.nodes)
	for i := range cp.fleet {
		n := &fleetNode{
			name:  fmt.Sprintf("sim-%07d", i),
			addr:  fmt.Sprintf("10.%d.%d.%d:7", i>>16&0xff, i>>8&0xff, i&0xff),
			state: drawState(rng),
			load:  rng.float(),
			gen:   1,
		}
		cp.fleet[i] = n
		s := sharded.Owner(n.name)
		perShard[s] = append(perShard[s], n)
	}
	for s, nodes := range perShard {
		for off := 0; off < len(nodes); off += sz.batch {
			end := min(off+sz.batch, len(nodes))
			cp.batches = append(cp.batches, &fleetBatch{shard: s, nodes: nodes[off:end]})
		}
	}

	ctx := context.Background()
	client := cp.client(nil, nil)
	err = forEach(rc.nproc, len(cp.batches), func(i int) error {
		b := cp.batches[i]
		ds := make([]ishare.NodeDigest, len(b.nodes))
		now := time.Now().UnixMilli()
		for j, n := range b.nodes {
			ds[j] = ishare.NodeDigest{Name: n.name, Addr: n.addr, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now}
		}
		return client.RegisterBatch(ctx, cp.addrs[b.shard], ds)
	})
	if err != nil {
		cp.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	for sweep := 0; sweep < sz.setupSweeps; sweep++ {
		err = forEach(rc.nproc, len(cp.batches), func(i int) error {
			_, _, err := cp.heartbeat(ctx, client, i, nil)
			return err
		})
		if err != nil {
			cp.close()
			return nil, fmt.Errorf("set-up sweep %d: %w", sweep, err)
		}
	}
	return cp, nil
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func forEach(workers, n int, fn func(i int) error) error {
	var next atomic.Int64
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// heartbeat re-draws the state of a churn share of batch bi (gen++ where it
// changed) and sends the whole batch. The draw depends only on (seed,
// batch, sweep number). It returns the digests acked and the call latency.
func (cp *controlPlane) heartbeat(ctx context.Context, client *ishare.Client, bi int, buf *[]ishare.NodeDigest) (int, time.Duration, error) {
	b := cp.batches[bi]
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweeps++
	rng := newSplitmix(cp.rc.seed, 2, int64(bi), b.sweeps)
	var ds []ishare.NodeDigest
	if buf != nil {
		ds = (*buf)[:0]
	}
	now := time.Now().UnixMilli()
	for _, n := range b.nodes {
		if rng.float() < cp.rc.sizes.churn {
			if s := drawState(rng); s != n.state {
				n.state, n.load = s, rng.float()
				n.gen++
			}
		}
		ds = append(ds, ishare.NodeDigest{Name: n.name, State: n.state, Load: n.load, Gen: n.gen, UnixMS: now})
	}
	if buf != nil {
		*buf = ds
	}
	t0 := time.Now()
	missing, err := client.HeartbeatBatch(ctx, cp.addrs[b.shard], ds)
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	if len(missing) > 0 {
		return 0, lat, fmt.Errorf("heartbeat batch %d: %d registered nodes unknown to shard %d", bi, len(missing), b.shard)
	}
	return len(ds), lat, nil
}

// obsCounters flattens the shards' obs snapshot to name{labels} -> value;
// histograms contribute name_count and name_sum.
func obsCounters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			key := fam.Name
			for _, l := range s.Labels {
				key += "{" + l.Key + "=" + l.Value + "}"
			}
			if s.Hist != nil {
				out[key+"_count"] += float64(s.Hist.Count)
				out[key+"_sum"] += s.Hist.Sum
				continue
			}
			out[key] += s.Value
		}
	}
	return out
}

// sumPrefix adds every flattened counter whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var t float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil // a file compacted away mid-walk is not an error
	})
	return total
}

// window is one sub-window of a closed loop.
type window struct {
	traced  bool
	seconds float64
	ops     int64
	failed  int64
	units   int64        // work units acked (digests for cp-ingest, ops otherwise)
	lat     [2][]float64 // microseconds; series 0 is the op, series 1 a named part of it
	use     usage
	peakRSS float64 // MB, the window's own high-water mark
	walGrow int64
}

// rate, p50 and cpuPerOp are the window's ops/s, median op latency in
// microseconds and CPU microseconds per op, all as the clock read.
func (w window) rate() float64 { return float64(w.ops-w.failed) / w.seconds }
func (w window) p50() float64  { return median(w.lat[0]) }
func (w window) cpuPerOp() float64 {
	return 1e6 * (w.use.user + w.use.sys) / float64(max(w.ops-w.failed, 1))
}
func (w window) peak() float64 { return w.peakRSS }

// opResult is what one closed-loop op reports.
type opResult struct {
	lat   [2]time.Duration
	units int
	err   error
}

// closedLoop runs the sub-windows: workers goroutines, each sending its
// next op only after the previous one completed. In a traced run odd
// sub-windows are traced and even ones are not, so the two interleave on
// the same host minute and their ratio is the tracing overhead.
func closedLoop(rc *runConfig, workers int, walDir string, setTrace func(on bool), op func(worker int) opResult) ([]window, error) {
	var firstErr error
	var errOnce sync.Once
	run := func(d time.Duration, traced bool) window {
		setTrace(traced)
		w := window{traced: traced}
		grow0 := dirBytes(walDir)
		var mu sync.Mutex
		var wg sync.WaitGroup
		resetPeakRSS()
		u0 := readUsage()
		deadline := u0.at.Add(d)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var ops, failed, units int64
				var lat [2][]float64
				for time.Now().Before(deadline) {
					r := op(g)
					ops++
					if r.err != nil {
						failed++
						errOnce.Do(func() { firstErr = r.err })
						continue
					}
					units += int64(r.units)
					lat[0] = append(lat[0], micros(r.lat[0]))
					lat[1] = append(lat[1], micros(r.lat[1]))
				}
				mu.Lock()
				w.ops += ops
				w.failed += failed
				w.units += units
				w.lat[0] = append(w.lat[0], lat[0]...)
				w.lat[1] = append(w.lat[1], lat[1]...)
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		u1 := readUsage()
		w.use = u1.sub(u0)
		w.seconds = u1.at.Sub(u0.at).Seconds()
		w.peakRSS = peakRSSMB()
		w.walGrow = dirBytes(walDir) - grow0
		return w
	}

	run(rc.warmup, false)
	var out []window
	for i := 0; i < rc.windows; i++ {
		if err := rc.sampleHost(); err != nil {
			return nil, err
		}
		out = append(out, run(rc.each, rc.trace && i%2 == 1))
	}
	if err := rc.sampleHost(); err != nil {
		return nil, err
	}
	setTrace(false)
	return out, firstErr
}

// pick returns the windows of one kind.
func pick(ws []window, traced bool) []window {
	var out []window
	for _, w := range ws {
		if w.traced == traced {
			out = append(out, w)
		}
	}
	return out
}

func over(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// succeeded counts the ops of ws that did not fail.
func succeeded(ws []window) (n int64) {
	for _, w := range ws {
		n += w.ops - w.failed
	}
	return n
}

func pooled(ws []window, series int) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.lat[series]...)
	}
	return out
}

// summarise emits what every workload shares: the end-to-end rate, median
// latency, set-up time and peak memory from the untraced sub-windows, or —
// in the traced pass — the harness counters and the tracing overhead.
func summarise(rep *report, rc *runConfig, ws []window) {
	plain := pick(ws, false)
	for _, w := range ws {
		rep.attempted += w.ops
		rep.failed += w.failed
	}
	rates := over(plain, window.rate)
	rate, p50, setup, speed := median(rates), median(over(plain, window.p50)), median(rc.setupS), rc.hostSpeed()
	rep.note("host speed %.2f of the reference (calibration kernel median %.1f ms over %d samples, range %.1f-%.1f; reference %.1f ms)",
		speed, median(rc.kernelMS), len(rc.kernelMS), quantile(rc.kernelMS, 0), quantile(rc.kernelMS, 1), calibRefMS)
	rep.note("as the clock read: %.4g ops/s, op p50 %.1f us (medians over %d sub-windows of about %.2fs, %d ops, sub-window spread %.1f%%), set-ups %.3f s",
		rate, p50, len(plain), median(over(plain, func(w window) float64 { return w.seconds })), rep.attempted, spreadPct(rates), rc.setupS)
	if !rc.trace {
		// Reference-host time: the clock's medians scaled by the run's host speed.
		rep.set("ops_s", rate/speed)
		rep.set("op_p50_us", p50*speed)
		rep.set("setup_s", setup*speed)
		rep.set("peak_rss_mb", median(over(plain, window.peak)))
		return
	}
	traced := pick(ws, true)
	var use usage
	for _, w := range traced {
		use.add(w.use)
	}
	rep.setUsage(use, succeeded(traced))
	rep.set("bench.cpu_us_per_op", median(over(traced, window.cpuPerOp)))
	rep.set("bench.window_spread_pct", spreadPct(rates))
	rep.set("bench.host_calib_ms", median(rc.kernelMS))
	rep.set("bench.host_speed", speed)
	rep.set("bench.clock_ops_s", rate)
	rep.set("bench.clock_op_p50_us", p50)
	rep.set("bench.clock_setup_s", setup)
	if len(traced) > 0 && median(rates) > 0 {
		rep.set("bench.trace_overhead_pct", 100*(1-median(over(traced, window.rate))/median(rates)))
	}
}

// runDiscover is cp-discover: one place op = Broker.Candidates, then a
// forecast for the best forecastTop names grouped by ring owner, then the
// pick with the highest survival.
func runDiscover(rc *runConfig, rep *report) error {
	cp, err := rc.setUpControlPlane()
	if err != nil {
		return err
	}
	defer cp.close()
	sz := rc.sizes
	workers := max(1, rc.nproc/sz.shards)
	ring := cp.sharded.Ring()
	clientObs := obs.NewRegistry()

	var rec *spanRecorder
	tot := newNetTotals()
	if rc.trace {
		rec = newSpanRecorder(1 << 19)
	}
	type worker struct {
		spy    *spyDialer
		client *ishare.Client
		broker *ishare.Broker
		names  [][]string
		// traced-only samples
		brokerSelf, slowest, straggler, fcSelf []float64
		cands                                  int64
	}
	ws, sp := make([]*worker, workers), make(spies, workers)
	for i := range ws {
		w := &worker{names: make([][]string, sz.shards)}
		w.spy, w.client = cp.generatorClient(rec, tot, clientObs)
		w.broker = &ishare.Broker{Client: w.client, DiscoverLimit: discoverLimit, CacheTTL: time.Minute, Obs: clientObs}
		ws[i], sp[i] = w, w.spy
	}
	ctx := context.Background()
	var unknown, misranked atomic.Int64

	place := func(g int) opResult {
		w := ws[g]
		traced := w.spy.tracing()
		var placeID, candID int32
		t0 := time.Now()
		if traced {
			placeID = rec.begin(0, spPlace)
			candID = rec.begin(placeID, spCandidates)
			w.spy.parent.Store(candID)
			w.spy.take()
		}
		cands, err := w.broker.Candidates(ctx)
		tDisc := time.Since(t0)
		if traced {
			rec.finish(candID)
			_, kids := w.spy.take()
			if len(kids) > 0 {
				sort.Slice(kids, func(a, b int) bool { return kids[a] < kids[b] })
				w.brokerSelf = append(w.brokerSelf, micros(tDisc-kids[len(kids)-1]))
				w.slowest = append(w.slowest, micros(kids[len(kids)-1]))
				w.straggler = append(w.straggler, micros(kids[len(kids)-1]-kids[0]))
			}
			w.cands += int64(len(cands))
		}
		if err != nil {
			return opResult{err: err}
		}
		if len(cands) == 0 {
			return opResult{err: fmt.Errorf("discovery returned no candidates from a %d-node fleet", sz.nodes)}
		}
		for i := 1; i < len(cands); i++ {
			if cands[i].Score < cands[i-1].Score {
				misranked.Add(1)
			}
		}
		for s := range w.names {
			w.names[s] = w.names[s][:0]
		}
		for _, c := range cands[:min(forecastTop, len(cands))] {
			s := ring.Owner(c.Node.Name)
			w.names[s] = append(w.names[s], c.Node.Name)
		}
		best, bestSurvival := "", -1.0
		for s, names := range w.names {
			if len(names) == 0 {
				continue
			}
			var fcID int32
			f0 := time.Now()
			if traced {
				fcID = rec.begin(placeID, spForecast)
				w.spy.parent.Store(fcID)
			}
			infos, err := w.client.Forecast(ctx, cp.addrs[s], names, forecastHorizon)
			if traced {
				rec.finish(fcID)
				spent, _ := w.spy.take()
				w.fcSelf = append(w.fcSelf, micros(time.Since(f0)-spent))
			}
			if err != nil {
				return opResult{err: err}
			}
			for _, fi := range infos {
				if !fi.Known {
					unknown.Add(1)
				}
				if fi.Survival > bestSurvival {
					best, bestSurvival = fi.Name, fi.Survival
				}
			}
		}
		if best == "" {
			return opResult{err: fmt.Errorf("no forecast answered for %d candidates", len(cands))}
		}
		if traced {
			rec.finish(placeID)
		}
		return opResult{lat: [2]time.Duration{time.Since(t0), tDisc}, units: 1}
	}

	before := obsCounters(cp.obs)
	wins, loopErr := closedLoop(rc, workers, cp.walDir, sp.set, place)
	after := obsCounters(cp.obs)
	delta := func(key string) float64 { return after[key] - before[key] }
	summarise(rep, rc, wins)

	rep.check("ops-succeed", loopErr == nil, "%v", loopErr)
	rep.check("s1-before-s2", misranked.Load() == 0, "%d candidate lists ranked a worse state first", misranked.Load())
	rep.check("forecast-names-known", unknown.Load() == 0, "%d forecast answers were for names the registry never observed", unknown.Load())
	walAppends := delta("fgcs_registry_wal_appends_total")
	rep.check("no-wal-append-in-window", walAppends == 0, "%g WAL appends during a read-only window", walAppends)
	bm := ws[0].broker.Metrics()
	rep.check("no-stale-serves", bm.StaleServes == 0 && bm.ShardErrors == 0, "stale serves %d, shard errors %d", bm.StaleServes, bm.ShardErrors)
	rep.note("discover (Broker.Candidates only) p50 %.1f us over %d untraced ops", median(pooled(pick(wins, false), 1)), len(pooled(pick(wins, false), 1)))

	if !rc.trace {
		return nil
	}
	tracedOps := succeeded(pick(wins, true))
	disc := pooled(wins, 1)
	rep.set("ishare.broker.discover_p50_us", median(disc))
	rep.set("ishare.broker.discover_p99_us", quantile(disc, 0.99))
	rep.set("ishare.broker.discover_p999_us", quantile(disc, 0.999))
	rep.note("discovery tails pooled over %d samples", len(disc))
	var brokerSelf, slowest, straggler, fcSelf []float64
	var cands int64
	for _, w := range ws {
		brokerSelf = append(brokerSelf, w.brokerSelf...)
		slowest = append(slowest, w.slowest...)
		straggler = append(straggler, w.straggler...)
		fcSelf = append(fcSelf, w.fcSelf...)
		cands += w.cands
	}
	rep.set("ishare.broker.self_p50_us", median(brokerSelf))
	rep.set("ishare.broker.slowest_shard_p50_us", median(slowest))
	rep.set("ishare.broker.straggler_p50_us", median(straggler))
	rep.set("ishare.broker.candidates_per_op", float64(cands)/float64(max(tracedOps, 1)))
	rep.set("ishare.broker.stale_serves", float64(bm.StaleServes))
	rep.set("ishare.broker.shard_errors", float64(bm.ShardErrors))
	rep.set("ishare.client.self_forecast_p50_us", median(fcSelf))
	cp.setNetMetrics(rep, tot, tracedOps, clientObs, "list", "forecast")
	cp.setRegistryMetrics(rep, delta)
	rep.set("ishare.wal.appends", walAppends)
	rep.set("ishare.wal.compactions", delta("fgcs_registry_wal_compactions_total"))
	rc.probeControlPlaneLayers(rep, cp)
	return rc.finishSpans(rep, rec)
}

// setNetMetrics emits what the tracing dialers saw for the given ops.
func (cp *controlPlane) setNetMetrics(rep *report, tot *netTotals, tracedOps int64, clientObs *obs.Registry, ops ...string) {
	tot.mu.Lock()
	defer tot.mu.Unlock()
	rep.set("ishare.client.dials_per_op", float64(tot.dials)/float64(max(tracedOps, 1)))
	rep.set("ishare.client.dial_p50_us", median(tot.dialUS))
	for _, op := range ops {
		o := tot.ops[op]
		if o == nil {
			continue
		}
		rep.set("ishare.client.exchange_"+op+"_p50_us", median(o.exchangeUS))
		if op == "list" { // the broker makes the call, so only the connection shows its client's self time
			rep.set("ishare.client.self_list_p50_us", median(o.selfUS))
		}
		rep.set("ishare.client.bytes_per_op_"+op, float64(o.bytes)/float64(max(o.conns, 1)))
	}
	hw := tot.highWater.Load()
	rep.set("ishare.client.conns_high_water", float64(hw))
	limit := int64(max(cp.rc.nproc, cp.rc.sizes.shards))
	rep.check("generator-connections-bounded", hw <= limit, "%d connections open at once, limit max(nproc, shards) = %d", hw, limit)
	c := obsCounters(clientObs)
	retries, failures := sumPrefix(c, "fgcs_client_retries_total"), sumPrefix(c, "fgcs_client_failures_total")
	rep.set("ishare.client.retries", retries)
	rep.set("ishare.client.failures", failures)
	rep.check("no-client-retries", retries == 0 && failures == 0, "%g retries, %g failures", retries, failures)
}

func (cp *controlPlane) setRegistryMetrics(rep *report, delta func(string) float64) {
	for _, op := range []string{"list", "forecast", "heartbeat_batch"} {
		rep.set("ishare.registry.requests_"+op, delta("fgcs_registry_requests_total{op="+op+"}"))
	}
	rep.set("ishare.registry.batched_entries", delta("fgcs_registry_batched_entries_total"))
	sheds := delta("fgcs_registry_sheds_total")
	rep.set("ishare.registry.sheds", sheds)
	rep.check("no-sheds", sheds == 0, "%g requests shed", sheds)
	rep.set("ishare.registry.forecasts_served", delta("fgcs_registry_forecasts_total"))
	if n := delta("fgcs_registry_forecast_latency_seconds_count"); n > 0 {
		rep.set("ishare.registry.forecast_latency_mean_us", 1e6*delta("fgcs_registry_forecast_latency_seconds_sum")/n)
	}
	rep.set("ishare.registry.rss_bytes_per_node", cp.rc.rssPerNode)
}

// runIngest is cp-ingest: generators sweep HeartbeatBatch round-robin over
// the batches; afterwards shard 0 is crashed and restarted and must list
// every acked node in its last acked state.
func runIngest(rc *runConfig, rep *report) error {
	cp, err := rc.setUpControlPlane()
	if err != nil {
		return err
	}
	defer cp.close()
	workers := min(2, rc.nproc)
	clientObs := obs.NewRegistry()

	var rec *spanRecorder
	tot := newNetTotals()
	if rc.trace {
		rec = newSpanRecorder(1 << 17)
	}
	type worker struct {
		spy    *spyDialer
		client *ishare.Client
		buf    []ishare.NodeDigest
		self   []float64
	}
	ws, sp := make([]*worker, workers), make(spies, workers)
	for i := range ws {
		w := &worker{}
		w.spy, w.client = cp.generatorClient(rec, tot, clientObs)
		ws[i], sp[i] = w, w.spy
	}
	ctx := context.Background()
	var next atomic.Int64
	beat := func(g int) opResult {
		w := ws[g]
		bi := int((next.Add(1) - 1) % int64(len(cp.batches)))
		traced := w.spy.tracing()
		var id int32
		if traced {
			id = rec.begin(0, spHeartbeat)
			w.spy.parent.Store(id)
			w.spy.take()
		}
		n, lat, err := cp.heartbeat(ctx, w.client, bi, &w.buf)
		if traced {
			rec.finish(id)
			spent, _ := w.spy.take()
			w.self = append(w.self, micros(lat-spent))
		}
		return opResult{lat: [2]time.Duration{lat, lat}, units: n, err: err}
	}

	before := obsCounters(cp.obs)
	wins, loopErr := closedLoop(rc, workers, cp.walDir, sp.set, beat)
	after := obsCounters(cp.obs)
	delta := func(key string) float64 { return after[key] - before[key] }
	summarise(rep, rc, wins)
	rep.check("ops-succeed-none-missing", loopErr == nil, "%v", loopErr)

	plain := pick(wins, false)
	digestsS := median(over(plain, func(w window) float64 { return float64(w.units) / w.seconds }))
	rep.note("acked digests/s %.0f (median over %d untraced sub-windows)", digestsS, len(plain))
	appends, compactions := delta("fgcs_registry_wal_appends_total"), delta("fgcs_registry_wal_compactions_total")
	// A window too short to fill two logs (the smoke test's) need not compact.
	rep.check("wal-appended-and-compacted", appends > 0 && (compactions >= 2 || appends < float64(2*rc.sizes.shards*walCompactEvery)),
		"%g WAL appends and %g compactions in the write window", appends, compactions)
	rep.note("WAL appends %g, compactions %g in the window", appends, compactions)

	recovery, recovered := cp.checkDurability(ctx, rep)

	if !rc.trace {
		return nil
	}
	tracedOps := succeeded(pick(wins, true))
	rep.set("ishare.client.ingest_digests_s", digestsS)
	rep.set("ishare.client.heartbeat_batch_p99_us", quantile(pooled(wins, 0), 0.99))
	rep.note("heartbeat tail pooled over %d samples", len(pooled(wins, 0)))
	var self []float64
	for _, w := range ws {
		self = append(self, w.self...)
	}
	rep.set("ishare.client.self_heartbeat_batch_p50_us", median(self))
	cp.setNetMetrics(rep, tot, tracedOps, clientObs, "heartbeat_batch")
	cp.setRegistryMetrics(rep, delta)
	rep.set("ishare.wal.appends", appends)
	rep.set("ishare.wal.compactions", compactions)
	var grow, digests int64
	for _, w := range wins {
		if w.walGrow > 0 { // a sub-window with a compaction shrank the log; skip it
			grow += w.walGrow
			digests += w.units
		}
	}
	if digests > 0 {
		rep.set("ishare.wal.bytes_per_digest", float64(grow)/float64(digests))
	}
	rep.set("ishare.wal.recovery_s", recovery)
	rep.set("ishare.wal.recovered_records", recovered)
	rc.probeControlPlaneLayers(rep, cp)
	return rc.finishSpans(rep, rec)
}

// checkDurability lists the whole fleet, then kills shard 0 without a
// final fsync, restarts it from its WAL directory and compares what it
// lists with the last acked state of every node it owns.
func (cp *controlPlane) checkDurability(ctx context.Context, rep *report) (recoverySeconds, recoveredRecords float64) {
	verify := cp.client(nil, nil)
	verify.Limits.MaxMessageBytes = 256 << 20 // a full shard listing is far past the 1 MiB default
	total := 0
	for _, addr := range cp.addrs {
		nodes, err := verify.ListShard(ctx, addr, 0)
		if err != nil {
			rep.check("list-totals-fleet", false, "listing %s: %v", addr, err)
			return 0, 0
		}
		total += len(nodes)
	}
	rep.check("list-totals-fleet", total == len(cp.fleet), "shards list %d nodes, fleet has %d", total, len(cp.fleet))

	if err := cp.sharded.CrashShard(0); err != nil {
		rep.check("crash-restart-recovers-acked", false, "crash: %v", err)
		return 0, 0
	}
	t0 := time.Now()
	if err := cp.sharded.RestartShard(0); err != nil {
		rep.check("crash-restart-recovers-acked", false, "restart: %v", err)
		return 0, 0
	}
	recoverySeconds = time.Since(t0).Seconds()
	recoveredRecords = float64(cp.sharded.Shard(0).RecoveredRecords())
	nodes, err := verify.ListShard(ctx, cp.addrs[0], 0)
	if err != nil {
		rep.check("crash-restart-recovers-acked", false, "listing the restarted shard: %v", err)
		return recoverySeconds, recoveredRecords
	}
	got := make(map[string]ishare.NodeInfo, len(nodes))
	for _, n := range nodes {
		got[n.Name] = n
	}
	want, bad := 0, 0
	for _, b := range cp.batches {
		if b.shard != 0 {
			continue
		}
		for _, n := range b.nodes {
			want++
			if g, ok := got[n.name]; !ok || g.State != n.state || g.Gen != n.gen || g.Load != n.load {
				bad++
			}
		}
	}
	rep.check("crash-restart-recovers-acked", bad == 0 && len(nodes) == want,
		"%d of shard 0's %d acked nodes missing or stale after restart (%d listed, %g records replayed in %.3fs)",
		bad, want, len(nodes), recoveredRecords, recoverySeconds)
	return recoverySeconds, recoveredRecords
}

// setUpControlPlane sets the control plane up setups times, timing each,
// keeps the last, and records the resident bytes per node.
func (rc *runConfig) setUpControlPlane() (*controlPlane, error) {
	for i := 0; ; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		rss0 := rssBytes()
		var cp *controlPlane
		err := rc.timeSetup(func() (err error) {
			cp, err = setupControlPlane(rc, filepath.Join(rc.tmp, fmt.Sprintf("wal-%d", i)))
			return err
		})
		if err != nil {
			if cp != nil {
				cp.close()
			}
			return nil, err
		}
		if i+1 < setups {
			cp.close()
			continue
		}
		runtime.GC()
		rc.rssPerNode = (rssBytes() - rss0) / float64(rc.sizes.nodes)
		return cp, nil
	}
}
