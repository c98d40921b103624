package ishare

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/forecast"
)

// forecastFixture drives a forecast-enabled registry with an injected
// clock: Scale 60000 maps one wall millisecond to one virtual minute, so
// a "day" of fleet time is 1440 clock ticks.
type forecastFixture struct {
	r     *Registry
	clock *atomic.Int64
	gen   int64
}

const (
	// forecastEpochMS is the fixture clock's start, where each test sends
	// its first digest: that stamp anchors the forecaster's epoch.
	forecastEpochMS = int64(1_000)
	msPerDay        = int64(1440) // at Scale 60000: 1 ms = 1 virtual minute
)

func newForecastFixture(t *testing.T, opt RegistryOptions) *forecastFixture {
	t.Helper()
	var clock atomic.Int64
	clock.Store(forecastEpochMS)
	opt.TTL = time.Hour
	opt.Now = func() time.Time { return time.UnixMilli(clock.Load()) }
	if opt.Forecast == nil {
		opt.Forecast = &ForecastOptions{Scale: 60_000}
	}
	r, err := NewRegistryWithOptions("127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return &forecastFixture{r: r, clock: &clock}
}

// report advances the clock to the given stamp and heartbeats the node's
// state with a fresh Gen so the digest supersedes the stored one.
func (f *forecastFixture) report(t *testing.T, name, state string, stampMS int64) {
	t.Helper()
	f.clock.Store(stampMS)
	f.gen++
	resp := f.r.handle(Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: name, State: state, Gen: f.gen}}})
	if !resp.OK {
		t.Fatalf("heartbeat(%s, %s): %s", name, state, resp.Error)
	}
}

// seedDailyOutages registers n1 and reports ten days of S3 from 09:00 to
// 11:00, with S1 the rest of the time.
func (f *forecastFixture) seedDailyOutages(t *testing.T) {
	t.Helper()
	if resp := f.r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: "n1", Addr: "10.0.0.1:70",
		State: "S1(full)", Gen: 1}}}); !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	f.gen = 1
	for d := int64(0); d < 10; d++ {
		f.report(t, "n1", "S3(UEC-CPU)", forecastEpochMS+d*msPerDay+540) // 09:00
		f.report(t, "n1", "S1(full)", forecastEpochMS+d*msPerDay+660)    // 11:00
	}
}

// TestRegistryForecastOp exercises the forecast op end to end: the
// registry derives events from digest transitions and serves horizon
// survival forecasts that distinguish the risky clock window from a safe
// one.
func TestRegistryForecastOp(t *testing.T) {
	f := newForecastFixture(t, RegistryOptions{})
	f.seedDailyOutages(t)

	// Day 10, 08:30: a one-hour horizon crosses the daily 09:00 outage.
	f.clock.Store(forecastEpochMS + 10*msPerDay + 510)
	resp := f.r.handle(Request{Op: "forecast", Names: []string{"n1", "ghost"}, HorizonMS: 60})
	if !resp.OK {
		t.Fatalf("forecast: %s", resp.Error)
	}
	if len(resp.Forecasts) != 2 {
		t.Fatalf("got %d forecasts, want 2", len(resp.Forecasts))
	}
	risky, ghost := resp.Forecasts[0], resp.Forecasts[1]
	if !risky.Known || ghost.Known {
		t.Fatalf("known flags wrong: n1=%v ghost=%v", risky.Known, ghost.Known)
	}
	if risky.Samples == 0 {
		t.Fatal("n1 forecast has no history samples")
	}
	if risky.Survival >= 0.5 {
		t.Errorf("survival across the daily outage window = %v, want < 0.5", risky.Survival)
	}
	if risky.Gen != f.gen || risky.State == "" {
		t.Errorf("forecast not digest-stamped: gen %d (want %d), state %q", risky.Gen, f.gen, risky.State)
	}
	if ghost.Survival != 0.5 {
		t.Errorf("unknown node survival = %v, want the 0.5 prior", ghost.Survival)
	}

	// 13:00 the same day: the horizon is event-free every prior day.
	f.clock.Store(forecastEpochMS + 10*msPerDay + 780)
	resp = f.r.handle(Request{Op: "forecast", Names: []string{"n1"}, HorizonMS: 60})
	if !resp.OK {
		t.Fatalf("forecast: %s", resp.Error)
	}
	if safe := resp.Forecasts[0]; safe.Survival <= 0.5 {
		t.Errorf("survival in the safe window = %v, want > 0.5", safe.Survival)
	}

	// Wire path: the client helper round-trips the same exchange.
	infos, err := (&Client{}).Forecast(context.Background(), f.r.Addr(), []string{"n1"}, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Known {
		t.Fatalf("client forecast: %+v", infos)
	}
}

// TestForecastOpValidation pins the failure modes: not enabled, and a
// missing horizon.
func TestForecastOpValidation(t *testing.T) {
	plain, err := NewRegistry("127.0.0.1:0", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if resp := plain.handle(Request{Op: "forecast", Names: []string{"x"}, HorizonMS: 60}); resp.OK {
		t.Error("forecast on a non-forecasting registry succeeded")
	}

	f := newForecastFixture(t, RegistryOptions{})
	if resp := f.r.handle(Request{Op: "forecast", Names: []string{"x"}}); resp.OK {
		t.Error("forecast without a horizon succeeded")
	}
}

// TestForecastSurvivesRecovery replays the WAL into a fresh registry and
// checks the recovered forecaster re-derives the event history: the
// post-recovery forecast matches the pre-crash one.
func TestForecastSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := RegistryOptions{WAL: &WALOptions{Dir: dir}}
	f := newForecastFixture(t, opt)
	f.seedDailyOutages(t)

	queryMS := forecastEpochMS + 10*msPerDay + 510
	f.clock.Store(queryMS)
	before := f.r.handle(Request{Op: "forecast", Names: []string{"n1"}, HorizonMS: 60})
	if !before.OK {
		t.Fatalf("forecast before crash: %s", before.Error)
	}
	if err := f.r.Crash(); err != nil {
		t.Fatal(err)
	}

	f2 := newForecastFixture(t, RegistryOptions{WAL: &WALOptions{Dir: dir}})
	f2.clock.Store(queryMS)
	after := f2.r.handle(Request{Op: "forecast", Names: []string{"n1"}, HorizonMS: 60})
	if !after.OK {
		t.Fatalf("forecast after recovery: %s", after.Error)
	}
	b, a := before.Forecasts[0], after.Forecasts[0]
	if !a.Known {
		t.Fatal("recovered registry forgot the node")
	}
	if a.Survival != b.Survival || a.Samples != b.Samples {
		t.Errorf("forecast changed across recovery:\n before %+v\n after  %+v", b, a)
	}
}

// TestRegistryBytesPerNode holds the per-node bounds forecast/doc.go
// states for a forecasting shard: the 48-byte entry, its state byte, its
// slots in the name index, its bucket and the forecaster by ID, one string
// of its name and address — and no name in the forecaster. A node with no
// event yet holds a nil forecaster slot (120 heap bytes measured, 122 under
// -race); one event builds its history and a one-start ring (177, 186
// under -race). Each bound is at most a tenth over.
func TestRegistryBytesPerNode(t *testing.T) {
	const nodes, batch = 20_000, 1000
	if size := unsafe.Sizeof(registryEntry{}); size != 48 {
		t.Errorf("a registry entry is %d bytes, want 48", size)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, c := range []struct {
		state string
		bound int64
	}{
		{"S1(full)", 125},        // no event
		{"S3(cpu-unavail)", 194}, // one event each
	} {
		before := heap()
		r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Forecast: &ForecastOptions{}})
		if err != nil {
			t.Fatal(err)
		}
		ds := benchDigests(nodes)
		for i := range ds {
			ds[i].State = c.state
		}
		for lo := 0; lo < nodes; lo += batch {
			if resp := r.handle(Request{Op: "register_batch", Digests: ds[lo : lo+batch]}); !resp.OK {
				t.Fatalf("register_batch: %s", resp.Error)
			}
		}
		ds = nil
		perNode := (heap() - before) / nodes
		if got, names := r.fc.Nodes(); got != nodes || names != 0 {
			t.Fatalf("%s: forecaster knows %d nodes and %d names, want %d and none", c.state, got, names, nodes)
		}
		t.Logf("%s: %d heap bytes per node (bound %d)", c.state, perNode, c.bound)
		if perNode > c.bound {
			t.Errorf("%s: %d heap bytes per node, want <= %d", c.state, perNode, c.bound)
		}
		r.Close()
	}
}

// TestRegistryBytesPerDecodedNode: a node first seen in a decoded batch
// costs the shard what TestRegistryBytesPerNode allows, though every
// string of a decoded message shares one allocation, which a kept name
// would pin whole. Each batch is 999 known nodes and one new one, decoded
// as a server decodes it: 111–119 heap bytes a node measured over 20 runs.
func TestRegistryBytesPerDecodedNode(t *testing.T) {
	const known, fresh, bound = 999, 1000, 125 // bound: TestRegistryBytesPerNode's, no event
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Forecast: &ForecastOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := benchDigests(known + fresh)
	register := func(batch []NodeDigest) {
		var buf []byte
		buf, _ = appendRequest(buf, &Request{Op: "register_batch", Digests: batch})
		var req Request
		if _, err := readMessage(&msgReader{r: bytes.NewReader(buf)}, 1<<20, &req, nil); err != nil {
			t.Fatal(err)
		}
		if resp := r.handle(req); !resp.OK {
			t.Fatalf("register_batch: %s", resp.Error)
		}
	}
	register(ds[:known])
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // and the pooled buffers the first one kept
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	batch := make([]NodeDigest, known+1)
	copy(batch, ds[:known])
	before := heap()
	for i := range fresh {
		batch[known] = ds[known+i]
		register(batch)
	}
	perNode := (heap() - before) / fresh
	runtime.KeepAlive(ds) // live through both readings
	runtime.KeepAlive(batch)
	if got, _ := r.fc.Nodes(); got != known+fresh {
		t.Fatalf("forecaster knows %d nodes, want %d", got, known+fresh)
	}
	t.Logf("%d heap bytes per decoded node (bound %d)", perNode, bound)
	if perNode > bound {
		t.Errorf("%d heap bytes per decoded node, want <= %d", perNode, bound)
	}
}

// TestRegisterFreshAllocs: registering a node the shard has not seen costs
// one allocation, its name-and-address string, and its share of the growth
// of the slices its entry, state byte, index, bucket and forecaster slots
// live in: under a hundredth of an allocation a node, amortized.
func TestRegisterFreshAllocs(t *testing.T) {
	const batch, runs = 1000, 20
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Forecast: &ForecastOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := benchDigests(batch * (runs + 1)) // AllocsPerRun runs once more, untimed
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		req := Request{Op: "register_batch", Digests: ds[next : next+batch]}
		next += batch
		if resp := r.handle(req); !resp.OK {
			t.Fatal(resp.Error)
		}
	})
	if got := r.ids.live; got != len(ds) {
		t.Fatalf("%d nodes registered, want %d", got, len(ds))
	}
	t.Logf("%.0f allocations a batch of %d fresh nodes", allocs, batch)
	if allocs > batch+batch/100 {
		t.Errorf("%.0f allocations a batch of %d fresh nodes, want one a node and the slices' growth (1004 measured)", allocs, batch)
	}
}

// TestForecastsExactUnderBatchedIngest holds a forecasting shard, which
// hands its forecaster a batch's new states and only the latest stamp of
// its unchanged ones, to a forecaster fed every applied digest as its own
// report (the oracle). The stream is shuffled batches of fresh, repeated,
// stale and unstamped digests, some bare, some of states the forecaster
// does not read, over nodes that are unregistered and registered again;
// the span must match after every request, and every node's forecasts at
// the end.
func TestForecastsExactUnderBatchedIngest(t *testing.T) {
	f := newForecastFixture(t, RegistryOptions{})
	oracle, err := forecast.NewService(forecast.ServiceConfig{Scale: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	// mirror is what the shard stores of a node, to tell which digests it
	// applies: upsertLocked's rule.
	type mirror struct {
		state string
		gen   int64
		seen  int64
	}
	nodes := map[string]*mirror{}
	states := []string{"S1(full)", "S1", "S2(lowest-priority)", "S3(cpu-unavail)", "S3", "S4(mem-thrash)",
		"S5(machine-unavail)", "S3 (a note)", "lost"}
	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	rng := rand.New(rand.NewSource(7))
	gen := int64(1)
	apply := func(ds []NodeDigest) {
		now := f.clock.Load() * 1e6
		for _, d := range ds {
			m := nodes[d.Name]
			if m == nil {
				continue
			}
			if d.State != "" {
				stamp := d.UnixMS
				if stamp == 0 {
					stamp = unixMS(now)
				}
				if m.state == "" || (NodeDigest{Gen: d.Gen, UnixMS: stamp}).Newer(NodeDigest{Gen: m.gen, UnixMS: unixMS(m.seen)}) {
					m.state, m.gen = d.State, d.Gen
					oracle.ObserveStatesID([]forecast.StateReport{{ID: f.r.idLocked(d.Name), State: d.State, UnixMS: stamp}})
				}
			}
			m.seen = max(m.seen, now)
		}
	}
	digest := func(name string, clock int64) NodeDigest {
		d := NodeDigest{Name: name, State: states[rng.Intn(len(states))], Gen: gen}
		switch rng.Intn(8) {
		case 0:
			d.State = "" // a bare refresh
		case 1:
			d.Gen -= int64(1 + rng.Intn(40)) // stale
		case 2:
			d.Gen = 0 // older than any stored digest but an unstamped one
		}
		if rng.Intn(6) > 0 {
			d.UnixMS = clock - int64(rng.Intn(30))
		}
		if st := nodes[name]; st != nil && rng.Intn(3) > 0 {
			d.State = st.state // most heartbeats repeat the state
		}
		gen++
		return d
	}
	check := func(what string) {
		t.Helper()
		if got, want := f.r.fc.Span(), oracle.Span(); got != want {
			t.Fatalf("%s: shard span %v, oracle %v", what, got, want)
		}
	}
	clock := forecastEpochMS
	for round := 0; round < 900; round++ {
		clock += int64(20 + rng.Intn(40)) // about 25 virtual days over the run
		f.clock.Store(clock)
		switch k := rng.Intn(40); {
		case k == 0 && len(nodes) > 0: // unregister some nodes
			var gone []string
			for name := range nodes {
				if rng.Intn(4) == 0 {
					gone = append(gone, name)
				}
			}
			for _, name := range gone {
				oracle.Forget(f.r.idLocked(name))
			}
			if resp := f.r.handle(Request{Op: "unregister", Names: gone}); !resp.OK {
				t.Fatalf("unregister: %s", resp.Error)
			}
			for _, name := range gone {
				delete(nodes, name)
			}
		case k < 4: // register the nodes not registered, and some that are
			var ds []NodeDigest
			for _, name := range names {
				if nodes[name] == nil || rng.Intn(10) == 0 {
					d := digest(name, clock)
					d.Addr = "10.0.0.1:" + name
					ds = append(ds, d)
				}
			}
			if resp := f.r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
				t.Fatalf("register_batch: %s", resp.Error)
			}
			for _, d := range ds {
				if nodes[d.Name] == nil {
					nodes[d.Name] = &mirror{seen: math.MinInt64}
				}
			}
			apply(ds)
		default: // a shuffled heartbeat batch, a node perhaps twice
			ds := make([]NodeDigest, 0, 2*len(names))
			for _, name := range names {
				for n := rng.Intn(3); n > 0; n-- {
					ds = append(ds, digest(name, clock))
				}
			}
			rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
			if resp := f.r.handle(Request{Op: "heartbeat_batch", Digests: ds}); !resp.OK {
				t.Fatalf("heartbeat_batch: %s", resp.Error)
			}
			apply(ds)
		}
		check(fmt.Sprintf("round %d", round))
	}
	span := oracle.Span()
	end := forecastEpochMS + int64(span.End-span.Start)/int64(time.Minute) // the span's end on the fixture's wall clock
	compared := 0
	for name := range nodes {
		id := f.r.idLocked(name)
		for _, nowMS := range []int64{end - 3*msPerDay, end - msPerDay - 200, end - 90} {
			for _, horizon := range []time.Duration{60 * time.Millisecond, 300 * time.Millisecond} {
				got, gotKnown := f.r.fc.ForecastID(id, horizon, nowMS)
				want, wantKnown := oracle.ForecastID(id, horizon, nowMS)
				if math.Float64bits(got.Survival) != math.Float64bits(want.Survival) || got.Samples != want.Samples || gotKnown != wantKnown {
					t.Fatalf("%s at %d +%v: shard %+v known %v, oracle %+v known %v", name, nowMS, horizon, got, gotKnown, want, wantKnown)
				}
				compared++
			}
		}
	}
	check("the forecasts")
	if compared == 0 {
		t.Fatal("no node left to compare")
	}
}
