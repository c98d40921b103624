package ishare

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// newDurableFixture is the forecast fixture (injected clock, so every
// stamp the WAL and the forecaster see is the test's) over a WAL with no
// background fsync and no compaction: the log is the ops, in order.
func newDurableFixture(t *testing.T, dir string) *forecastFixture {
	t.Helper()
	return newForecastFixture(t, RegistryOptions{WAL: &WALOptions{Dir: dir, SyncInterval: -1, CompactEvery: 1 << 30}})
}

// crashAndReplay kills the registry and rebuilds it over the same directory.
func (f *forecastFixture) crashAndReplay(t *testing.T, dir string) {
	t.Helper()
	if err := f.r.Crash(); err != nil {
		t.Fatal(err)
	}
	*f = *newDurableFixture(t, dir)
}

func (f *forecastFixture) do(t *testing.T, atMS int64, req Request) *Response {
	t.Helper()
	f.clock.Store(atMS)
	resp := f.r.handle(req)
	if resp == nil {
		t.Fatalf("%s: no response", req.Op)
	}
	return resp
}

// checkIDInvariants asserts the dense-ID bookkeeping: the name index, the
// entries slice, the four buckets and the free list describe one set of
// nodes, each ID in exactly one place.
func checkIDInvariants(t *testing.T, r *Registry, step string) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	if got, want := r.ids.live+len(r.free), len(r.entries); got != want {
		t.Fatalf("%s: %d names + %d free IDs != %d entries", step, r.ids.live, len(r.free), want)
	}
	where := make([]string, len(r.entries)) // where each ID was found
	place := func(id uint32, at string) {
		if int(id) >= len(where) {
			t.Fatalf("%s: ID %d in %s is beyond the %d entries", step, id, at, len(where))
		}
		if where[id] != "" {
			t.Fatalf("%s: ID %d is in %s and in %s", step, id, where[id], at)
		}
		where[id] = at
	}
	for _, id := range r.free {
		place(id, "the free list")
		if !reflect.DeepEqual(r.entries[id], registryEntry{}) || r.states[id] != 0 {
			t.Fatalf("%s: freed ID %d still holds %+v in state %d", step, id, r.entries[id], r.states[id])
		}
	}
	for score, b := range r.buckets {
		for pos, id := range b {
			place(id, fmt.Sprintf("bucket %d", score))
			e := r.entries[id]
			if int(r.bucket(id)) != score || int(e.pos) != pos {
				t.Fatalf("%s: ID %d sits at bucket %d pos %d, its entry says (%d, %d)", step, id, score, pos, r.bucket(id), e.pos)
			}
			if want := digestScore(r.state(id)); want != score {
				t.Fatalf("%s: %s in state %q is in bucket %d, want %d", step, e.name(), r.state(id), score, want)
			}
			if got := r.idLocked(e.name()); got != id {
				t.Fatalf("%s: bucket %d holds ID %d (%s), the name index says %d", step, score, id, e.name(), got)
			}
		}
	}
	for id, at := range where {
		if at == "" {
			t.Fatalf("%s: ID %d is in no bucket and not free", step, id)
		}
	}
	indexed := 0
	for _, s := range r.ids.slots {
		if s != 0 {
			if indexed++; int(s-1) >= len(where) || !strings.HasPrefix(where[s-1], "bucket") {
				t.Fatalf("%s: the name index holds ID %d, which is not live", step, s-1)
			}
		}
	}
	if indexed != r.ids.live {
		t.Fatalf("%s: the name index holds %d IDs and counts %d", step, indexed, r.ids.live)
	}
	if _, names := r.fc.Nodes(); names != 0 {
		t.Fatalf("%s: the registry's forecaster holds %d names", step, names)
	}
}

// TestIDInvariantsAcrossLifecycle walks one shard through every way an ID
// is assigned, moved, freed and reused, and checks the bookkeeping after
// each step.
func TestIDInvariantsAcrossLifecycle(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir)
	names := func(lo, hi int) []NodeDigest { return testFleetDigests(hi, 1000)[lo:hi] }
	steps := []struct {
		name string
		do   func()
		live int
	}{
		{"register batch", func() { f.do(t, 1000, Request{Op: "register_batch", Digests: names(0, 40)}) }, 40},
		{"register one, no digest", func() {
			f.do(t, 1010, Request{Op: "register_batch", Digests: []NodeDigest{{Name: "legacy", Addr: "10.9.9.9:70"}}})
		}, 41},
		{"pure refresh", func() { f.do(t, 1020, Request{Op: "heartbeat_batch", Digests: names(0, 40)}) }, 41},
		{"state class change", func() {
			f.do(t, 1030, Request{Op: "heartbeat_batch", Digests: []NodeDigest{
				{Name: "m000", State: "S3(UEC-CPU)", Gen: 20}, {Name: "m001", State: "S1(full)", Gen: 20},
				{Name: "m039", State: "S5(URR)", Gen: 20}, {Name: "nobody", State: "S1(full)", Gen: 1}}})
			f.do(t, 1031, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "legacy", State: "S2(reduced)", Gen: 1}}})
		}, 41},
		{"unregister first, middle, last, unknown", func() {
			for _, n := range []string{"m000", "m020", "legacy", "nobody"} {
				f.do(t, 1040, Request{Op: "unregister", Names: []string{n}})
			}
		}, 38},
		{"re-register and grow", func() { f.do(t, 1050, Request{Op: "register_batch", Digests: testFleetDigests(45, 1050)[18:45]}) }, 44},
		{"crash and replay", func() { f.crashAndReplay(t, dir) }, 44},
		{"unregister everything", func() {
			for _, d := range testFleetDigests(45, 0) {
				f.do(t, 1060, Request{Op: "unregister", Names: []string{d.Name}})
			}
		}, 0},
		{"register after empty", func() { f.do(t, 1070, Request{Op: "register_batch", Digests: names(0, 10)}) }, 10},
	}
	most := 0
	for _, s := range steps {
		s.do()
		checkIDInvariants(t, f.r, s.name)
		if got := f.r.ids.live; got != s.live {
			t.Fatalf("%s: %d live nodes, want %d", s.name, got, s.live)
		}
		most = max(most, s.live)
		if got := len(f.r.entries); got > most {
			t.Fatalf("%s: %d entries for at most %d live nodes: an ID was not reused", s.name, got, most)
		}
	}
}

// TestNameIndexMatchesMap drives a durable shard from empty, where the name
// index has its smallest table and names collide, through register,
// unregister and re-register churn to a few hundred nodes, and after every
// request holds each name's ID to a map kept beside it. The map's IDs are
// assigned as the shard assigns them: a freed ID, the last freed first,
// before a new one. The table must double at least three times and
// unregistrations must hit the middle of probe runs, where the entries
// behind the hole shift back; a replay of the log, midway and at the end,
// must reach the same IDs.
func TestNameIndexMatchesMap(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir)
	rng := rand.New(rand.NewSource(54))
	pool := make([]string, 260)
	for i := range pool {
		pool[i] = fmt.Sprintf("host-%d.pool", i)
	}
	oracle := map[string]uint32{}
	var free []uint32
	next := uint32(0)
	var sizes []int // the table's sizes, in the order it took them
	midRun := 0     // unregistrations of a slot the probe run goes on past
	check := func(step string) {
		t.Helper()
		f.r.mu.RLock()
		defer f.r.mu.RUnlock()
		for _, name := range append(pool, "ghost", "") {
			want, ok := oracle[name]
			if !ok {
				want = math.MaxUint32
			}
			if got := f.r.idLocked(name); got != want {
				t.Fatalf("%s: %q resolves to %d, the map says %d", step, name, got, want)
			}
		}
		if got := f.r.ids.live; got != len(oracle) {
			t.Fatalf("%s: the index counts %d names, the map holds %d", step, got, len(oracle))
		}
		if n := len(f.r.ids.slots); len(sizes) == 0 || sizes[len(sizes)-1] != n {
			sizes = append(sizes, n)
		}
	}
	ms := int64(1000)
	for round := range 900 {
		ms++
		grow := round < 450
		if rng.Intn(10) < 4 || grow && rng.Intn(10) < 6 {
			var ds []NodeDigest
			for n := 1 + rng.Intn(8); n > 0; n-- {
				name := pool[rng.Intn(len(pool))]
				ds = append(ds, NodeDigest{Name: name, Addr: fmt.Sprintf("10.0.0.%d:70", rng.Intn(256)), State: "S1(full)", Gen: int64(round)})
				if _, ok := oracle[name]; !ok {
					if k := len(free); k > 0 {
						oracle[name], free = free[k-1], free[:k-1]
					} else {
						oracle[name], next = next, next+1
					}
				}
			}
			f.do(t, ms, Request{Op: "register_batch", Digests: ds})
		} else {
			for n := 1 + rng.Intn(6); n > 0 && len(oracle) > 0; n-- {
				name := pool[rng.Intn(len(pool))]
				id, ok := oracle[name]
				if !ok {
					continue
				}
				f.r.mu.RLock()
				slots := f.r.ids.slots
				at := slices.Index(slots, id+1)
				if slots[(at+1)%len(slots)] != 0 {
					midRun++
				}
				f.r.mu.RUnlock()
				delete(oracle, name)
				free = append(free, id)
				f.do(t, ms, Request{Op: "unregister", Names: []string{name}})
				check(fmt.Sprintf("round %d, unregister %s", round, name))
			}
			f.do(t, ms, Request{Op: "unregister", Names: []string{"ghost"}})
		}
		check(fmt.Sprintf("round %d", round))
		if round == 450 || round == 899 {
			f.crashAndReplay(t, dir)
			check(fmt.Sprintf("replay at round %d", round))
		}
	}
	checkIDInvariants(t, f.r, "after the churn")
	if len(sizes) < 4 {
		t.Errorf("the table took sizes %v: fewer than three doublings", sizes)
	}
	if midRun < 20 {
		t.Errorf("%d unregistrations in the middle of a probe run, want at least 20", midRun)
	}
	t.Logf("table sizes %v, %d live, %d unregistrations mid-run", sizes, len(oracle), midRun)
}

// TestUnrankedListInIDOrder: a list without a limit answers every
// registered node in ID order, so two calls on an unchanged shard answer
// the same, freed and reused IDs included.
func TestUnrankedListInIDOrder(t *testing.T) {
	f := newForecastFixture(t, RegistryOptions{})
	f.do(t, 1000, Request{Op: "register_batch", Digests: testFleetDigests(50, 1000)})
	f.do(t, 1010, Request{Op: "unregister", Names: []string{"m003", "m017", "m040"}})
	f.do(t, 1020, Request{Op: "register_batch", Digests: []NodeDigest{{Name: "late", Addr: "10.9.9.9:70"}}})
	first, second := f.do(t, 1030, Request{Op: "list"}), f.do(t, 1030, Request{Op: "list"})
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two lists of an unchanged shard differ:\n%+v\n%+v", first.Nodes, second.Nodes)
	}
	byName := nameIDs(f.r)
	if len(first.Nodes) != len(byName) || !slices.IsSortedFunc(first.Nodes, func(a, b NodeInfo) int {
		return int(byName[a.Name]) - int(byName[b.Name])
	}) {
		t.Errorf("list is not the %d live nodes in ID order: %+v", len(byName), first.Nodes)
	}
	if got := byName["late"]; got != 40 {
		t.Errorf("late took ID %d, want the last freed one, m040's", got)
	}
}

// sortedAnswers is what a shard tells its callers, order taken out: the
// full list and a forecast for every name asked.
func sortedAnswers(t *testing.T, f *forecastFixture, atMS int64, ask []string) ([]NodeInfo, []ForecastInfo) {
	t.Helper()
	list := f.do(t, atMS, Request{Op: "list"})
	fc := f.do(t, atMS, Request{Op: "forecast", Names: ask, HorizonMS: 60})
	if !list.OK || !fc.OK {
		t.Fatalf("list: %q forecast: %q", list.Error, fc.Error)
	}
	sort.Slice(list.Nodes, func(i, j int) bool { return list.Nodes[i].Name < list.Nodes[j].Name })
	return list.Nodes, fc.Forecasts
}

// TestReplayWithRemovesMatchesUninterrupted replays a log that holds
// removes and re-registrations: the rebuilt shard needs no more IDs than
// the one that never stopped, and answers the same.
func TestReplayWithRemovesMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir)
	var ask []string
	for day := int64(0); day < 6; day++ {
		base := 1000 + day*1440 // Scale 60000: a wall ms is a virtual minute
		ds := testFleetDigests(60, base)
		for i := range ds {
			ds[i].Name = fmt.Sprintf("d%d-%s", day%3, ds[i].Name) // three overlapping generations of names
			ds[i].Gen = day*10 + 1
		}
		f.do(t, base, Request{Op: "register_batch", Digests: ds})
		for i := range ds {
			if i%4 == 0 {
				ds[i].State, ds[i].Gen, ds[i].UnixMS = "S3(UEC-CPU)", day*10+2, base+540
			}
		}
		f.do(t, base+540, Request{Op: "heartbeat_batch", Digests: ds})
		for i := range ds {
			ds[i].State, ds[i].Gen, ds[i].UnixMS = "S1(full)", day*10+3, base+660
		}
		f.do(t, base+660, Request{Op: "heartbeat_batch", Digests: ds})
		for i, d := range ds {
			if i%3 != 0 {
				f.do(t, base+700, Request{Op: "unregister", Names: []string{d.Name}})
			} else if day == 5 {
				ask = append(ask, d.Name)
			}
		}
	}
	ask = append(ask, "d1-m001", "never-seen") // unregistered, and unknown
	queryMS := int64(1000 + 6*1440 + 510)
	wantList, wantFC := sortedAnswers(t, f, queryMS, ask)
	checkIDInvariants(t, f.r, "uninterrupted")
	f.r.mu.RLock()
	wantIDs := len(f.r.entries)
	f.r.mu.RUnlock()
	informed := 0
	for _, fi := range wantFC {
		if fi.Samples > 0 {
			informed++
		}
	}
	if informed == 0 {
		t.Fatal("no forecast was informed by history: the comparison would be between priors")
	}

	f.crashAndReplay(t, dir)
	checkIDInvariants(t, f.r, "replayed")
	if got := len(f.r.entries); got > wantIDs {
		t.Errorf("replay used %d IDs, the uninterrupted run %d", got, wantIDs)
	}
	gotList, gotFC := sortedAnswers(t, f, queryMS, ask)
	if !reflect.DeepEqual(gotList, wantList) {
		t.Errorf("list differs after replay:\n got %+v\nwant %+v", gotList, wantList)
	}
	if !reflect.DeepEqual(gotFC, wantFC) {
		t.Errorf("forecasts differ after replay:\n got %+v\nwant %+v", gotFC, wantFC)
	}
}

// TestUnregisterForgetsForecastHistory: a shard that has seen ten fleets of
// distinct names come and go holds one fleet's worth of entries, forecaster
// machines and heap, and a node that takes over an ID starts cold.
func TestUnregisterForgetsForecastHistory(t *testing.T) {
	const fleet, rounds = 2000, 10
	f := newForecastFixture(t, RegistryOptions{})
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	var live int64 // what one registered fleet costs
	for round := 0; round < rounds; round++ {
		ds := make([]NodeDigest, fleet)
		for i := range ds {
			ds[i] = NodeDigest{Name: fmt.Sprintf("r%d-node-%05d", round, i), Addr: "10.0.0.1:70", State: "S1(full)", Gen: 1}
		}
		if resp := f.r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
			t.Fatal(resp.Error)
		}
		// Every node has one outage, so every ring holds something to leak.
		for i := range ds {
			ds[i].State, ds[i].Gen = "S3(UEC-CPU)", 2
		}
		f.clock.Add(60)
		if resp := f.r.handle(Request{Op: "heartbeat_batch", Digests: ds}); !resp.OK || len(resp.Missing) != 0 {
			t.Fatalf("heartbeat_batch: %+v", resp)
		}
		if round == 0 {
			live = heap() - before
		}
		if round == rounds-1 {
			break
		}
		for _, d := range ds {
			if resp := f.r.handle(Request{Op: "unregister", Names: []string{d.Name}}); !resp.OK {
				t.Fatal(resp.Error)
			}
		}
		if got, _ := f.r.fc.Nodes(); got != 0 {
			t.Fatalf("round %d: forecaster still knows %d machines of an empty shard", round, got)
		}
	}
	if got := len(f.r.entries); got != fleet {
		t.Errorf("%d entries after %d fleets of %d, want %d", got, rounds, fleet, fleet)
	}
	if got, _ := f.r.fc.Nodes(); got != fleet {
		t.Errorf("forecaster holds %d machines, want the live %d", got, fleet)
	}
	// The live set is as large as after round one; the leak this guards
	// against added a forecaster's share of a fleet every round.
	if total := heap() - before; total > live*3/2+128<<10 {
		t.Errorf("heap holds %d bytes after %d fleets, one fleet cost %d", total, rounds, live)
	}
	checkIDInvariants(t, f.r, "after churn")
}

// TestRecycledIDStartsCold: the node that takes over a freed ID must not
// inherit its previous tenant's outages.
func TestRecycledIDStartsCold(t *testing.T) {
	f := newForecastFixture(t, RegistryOptions{})
	f.seedDailyOutages(t) // n1: S3 from 09:00 to 11:00 on ten days
	risky := forecastEpochMS + 10*msPerDay + 510
	ask := func(name string) ForecastInfo {
		t.Helper()
		f.clock.Store(risky)
		resp := f.r.handle(Request{Op: "forecast", Names: []string{name}, HorizonMS: 60})
		if !resp.OK {
			t.Fatal(resp.Error)
		}
		return resp.Forecasts[0]
	}
	old := ask("n1")
	if !old.Known || old.Samples == 0 || old.Survival >= 0.5 {
		t.Fatalf("n1 before unregister: %+v, want an informed forecast below 0.5", old)
	}
	id := f.r.idLocked("n1")
	if resp := f.r.handle(Request{Op: "unregister", Names: []string{"n1"}}); !resp.OK {
		t.Fatal(resp.Error)
	}
	if gone := ask("n1"); gone.Known || gone.Samples != 0 || gone.Survival != 0.5 {
		t.Errorf("n1 after unregister: %+v, want the cold prior", gone)
	}
	// A legacy agent (no digest) takes the ID: unknown to the forecaster.
	if resp := f.r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: "n2", Addr: "10.0.0.2:70"}}}); !resp.OK {
		t.Fatal(resp.Error)
	}
	if got := f.r.idLocked("n2"); got != id {
		t.Fatalf("n2 got ID %d, want the recycled %d", got, id)
	}
	if cold := ask("n2"); cold.Known || cold.Samples != 0 || cold.Survival != 0.5 {
		t.Errorf("n2 on n1's ID, before any digest: %+v, want the cold prior", cold)
	}
	// Once it reports, it must read exactly as a node on a never-used ID.
	f.clock.Store(risky - 30)
	for _, n := range []string{"n2", "fresh"} {
		if resp := f.r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: n, Addr: "10.0.0.3:70", State: "S1(full)", Gen: 1}}}); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	recycled, fresh := ask("n2"), ask("fresh")
	recycled.Name, fresh.Name = "", ""
	recycled.UnixMS, fresh.UnixMS = 0, 0 // n2 registered first, half an hour of clock later
	if recycled != fresh {
		t.Errorf("recycled ID answers %+v, a fresh one %+v", recycled, fresh)
	}
	if recycled.Survival <= 0.5 {
		t.Errorf("n2 survival %v: it inherited n1's outages", recycled.Survival)
	}
}

// TestListRankedSpreadsOverBucket: a bucket larger than the limit is handed
// out in successive stretches, not as the same first few nodes each time,
// and every answer is still ranked and sorted.
func TestListRankedSpreadsOverBucket(t *testing.T) {
	r, err := NewRegistry("127.0.0.1:0", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := benchDigests(100)
	for i := range ds {
		ds[i].Load = float64(i%7) / 10
		if i >= 90 {
			ds[i].State = "S2(reduced)"
		}
	}
	if resp := r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
		t.Fatal(resp.Error)
	}
	seen := map[string]bool{}
	var prev []NodeInfo
	for call := 0; call < 9; call++ {
		resp := r.handle(Request{Op: "list", Limit: 10})
		if !resp.OK || len(resp.Nodes) != 10 {
			t.Fatalf("call %d: %d nodes, %q", call, len(resp.Nodes), resp.Error)
		}
		if !slices.IsSortedFunc(resp.Nodes, func(a, b NodeInfo) int {
			return rankCmp(digestScore(a.State), digestScore(b.State), &a, &b)
		}) {
			t.Errorf("call %d: not sorted by (state, load, name): %+v", call, resp.Nodes)
		}
		for _, n := range resp.Nodes {
			if !strings.HasPrefix(n.State, "S1") {
				t.Errorf("call %d: %s is %s while 90 S1 nodes are alive", call, n.Name, n.State)
			}
			seen[n.Name] = true
		}
		if reflect.DeepEqual(resp.Nodes, prev) {
			t.Errorf("call %d returned the same 10 nodes as the call before", call)
		}
		prev = resp.Nodes
	}
	if len(seen) != 90 {
		t.Errorf("9 calls of 10 covered %d of the 90 S1 nodes", len(seen))
	}
	// A limit past the best bucket still fills from the next one.
	resp := r.handle(Request{Op: "list", Limit: 95})
	s2 := 0
	for _, n := range resp.Nodes {
		if strings.HasPrefix(n.State, "S2") {
			s2++
		}
	}
	if len(resp.Nodes) != 95 || s2 != 5 {
		t.Errorf("limit 95: %d nodes, %d of them S2; want 95 and 5", len(resp.Nodes), s2)
	}
}

// TestUnstampedSameGenHeartbeatUpdatesLoad: a node's register and heartbeat
// carry its digest without a stamp, and its Gen moves only when its state
// class does. Such a digest counts as stamped when it arrives, so the load
// of a same-Gen heartbeat reaches the list, live and after a replay; a
// stamped digest older than the stored one still loses.
func TestUnstampedSameGenHeartbeatUpdatesLoad(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir)
	f.do(t, 1000, Request{Op: "register_batch", Digests: []NodeDigest{{Name: "n", Addr: "10.0.0.1:70", State: "S1(full)", Load: 0.1, Gen: 1}}})
	f.do(t, 1010, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "n", State: "S1(full)", Load: 0.7, Gen: 1}}})
	f.do(t, 1020, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "n", State: "S1(full)", Load: 0.9, Gen: 1, UnixMS: 1005}}})
	check := func(step string) {
		t.Helper()
		for _, limit := range []int{0, 32} {
			resp := f.do(t, 1030, Request{Op: "list", Limit: limit})
			if len(resp.Nodes) != 1 || resp.Nodes[0].Load != 0.7 {
				t.Errorf("%s, list limit %d: %+v, want load 0.7", step, limit, resp.Nodes)
			}
		}
	}
	check("live")
	f.crashAndReplay(t, dir)
	check("replayed")
}

// TestConcurrentIngestListForecastChurn drives one shard from every side at
// once; under -race it is the check that IDs, buckets and the forecaster
// only move under the shard lock.
func TestConcurrentIngestListForecastChurn(t *testing.T) {
	r, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute,
		Forecast: &ForecastOptions{}, WAL: &WALOptions{Dir: t.TempDir(), CompactEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := benchDigests(400)
	if resp := r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
		t.Fatal(resp.Error)
	}
	var names []string
	for _, d := range ds {
		names = append(names, d.Name)
	}
	const iters = 60
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	states := []string{"S1(full)", "S3(UEC-CPU)", "S2(reduced)", "S5(URR)"}
	for w := 0; w < 2; w++ {
		w := w
		run(func(i int) {
			batch := slices.Clone(ds[w*200 : w*200+200])
			for j := range batch {
				batch[j].State, batch[j].Gen = states[(i+j)%len(states)], int64(10+i)
			}
			if resp := r.handle(Request{Op: "heartbeat_batch", Digests: batch}); !resp.OK {
				t.Errorf("heartbeat_batch: %s", resp.Error)
			}
		})
	}
	run(func(i int) {
		if resp := r.handle(Request{Op: "list", Limit: 32}); !resp.OK {
			t.Errorf("list: %s", resp.Error)
		}
		if resp := r.handle(Request{Op: "list"}); !resp.OK {
			t.Errorf("list: %s", resp.Error)
		}
	})
	run(func(i int) {
		if resp := r.handle(Request{Op: "forecast", Names: names[:64], HorizonMS: 1000}); !resp.OK || len(resp.Forecasts) != 64 {
			t.Errorf("forecast: %+v", resp)
		}
	})
	run(func(i int) {
		d := ds[(i*7)%len(ds)]
		if resp := r.handle(Request{Op: "unregister", Names: []string{d.Name}}); !resp.OK {
			t.Errorf("unregister: %s", resp.Error)
		}
		if resp := r.handle(Request{Op: "register_batch", Digests: []NodeDigest{{Name: d.Name, Addr: d.Addr, State: d.State, Gen: 1}}}); !resp.OK {
			t.Errorf("register: %s", resp.Error)
		}
	})
	wg.Wait()
	checkIDInvariants(t, r, "after the concurrent run")
	if got := r.ids.live; got != len(ds) {
		t.Errorf("%d nodes registered at the end, want %d", got, len(ds))
	}
}

var updateWALGolden = flag.Bool("update-wal-golden", false, "rewrite testdata/wal_golden.bin from this build's WAL encoding")

// TestWALBytesGolden replays a fixed ingest — every mutating op, batches of
// one and of many, known and unknown names, removes and re-registrations — and
// compares the log byte for byte with the one the commit before dense IDs
// wrote, less its two shard-map frames (testdata/wal_golden.bin, written with
// -update-wal-golden): how a shard indexes its nodes is not allowed to show
// in what it logs.
func TestWALBytesGolden(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir)
	fleet := testFleetDigests(30, 1000)
	f.do(t, 1000, Request{Op: "register_batch", Digests: fleet})
	f.do(t, 1005, Request{Op: "register_batch", Digests: []NodeDigest{{Name: "solo", Addr: "10.1.1.1:70", State: "S1(full)", Load: 0.125, Gen: 1}}})
	f.do(t, 1006, Request{Op: "register_batch", Digests: []NodeDigest{{Name: "legacy", Addr: "10.1.1.2:70"}}})
	f.do(t, 1010, Request{Op: "heartbeat_batch", Digests: fleet}) // all pure refreshes
	mixed := slices.Clone(fleet[:12])
	for i := range mixed {
		mixed[i].Addr = ""
		if i%3 == 0 {
			mixed[i].State, mixed[i].Gen, mixed[i].Load = "S3(UEC-CPU)", 30, 0.9
		}
	}
	mixed = append(mixed, NodeDigest{Name: "stranger", State: "S1(full)", Gen: 1})
	if resp := f.do(t, 1020, Request{Op: "heartbeat_batch", Digests: mixed}); !slices.Equal(resp.Missing, []string{"stranger"}) {
		t.Fatalf("missing = %v, want [stranger]", resp.Missing)
	}
	f.do(t, 1030, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "solo", State: "S2(reduced)", Load: 0.5, Gen: 2}}})
	f.do(t, 1031, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "solo"}}})
	f.do(t, 1032, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "legacy"}}})
	if resp := f.do(t, 1033, Request{Op: "heartbeat_batch", Digests: []NodeDigest{{Name: "stranger", State: "S1(full)"}}}); !slices.Equal(resp.Missing, []string{"stranger"}) {
		t.Fatalf("missing = %v, want [stranger]", resp.Missing)
	}
	f.do(t, 1040, Request{Op: "unregister", Names: []string{"m005", "m006", "solo", "stranger"}})
	f.do(t, 1050, Request{Op: "register_batch", Digests: testFleetDigests(36, 1050)[4:36]})
	f.do(t, 1060, Request{Op: "heartbeat_batch", Digests: testFleetDigests(36, 1060)})
	if err := f.r.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wal_golden.bin")
	if *updateWALGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("WAL is %d bytes, golden %d; first difference at byte %d", len(got), len(want), n)
	}
}

// TestOlderLogReplays: a log written while shards still logged shard-map
// installs (testdata/wal_golden_shardmaps.bin, TestWALBytesGolden's ingest
// with a kind-3 frame first and last) replays all 17 of its frames and is not
// truncated, and the shard it rebuilds equals the one wal_golden.bin's 15
// frames rebuild.
func TestOlderLogReplays(t *testing.T) {
	replay := func(golden string, frames int) map[string]string {
		data, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, walFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f := newDurableFixture(t, dir)
		if n := f.r.RecoveredRecords(); n != frames {
			t.Fatalf("%s: replayed %d frames, want %d", golden, n, frames)
		}
		state := registryStateSnapshot(f.r)
		if err := f.r.Close(); err != nil {
			t.Fatal(err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("%s: the log was %d bytes, %d after the shard opened it (%v)", golden, len(data), len(after), err)
		}
		return state
	}
	older, want := replay("wal_golden_shardmaps.bin", 17), replay("wal_golden.bin", 15)
	if len(want) == 0 || !maps.Equal(older, want) {
		t.Fatalf("the older log rebuilds %d nodes, wal_golden.bin %d, or they differ", len(older), len(want))
	}
}

// TestAliveMatchesTimeSub: the integer liveness test list answers with is
// time.Time.Sub's, saturation included, at the edges of the TTL and of
// int64.
func TestAliveMatchesTimeSub(t *testing.T) {
	const ttl = time.Minute
	r := &Registry{ttl: ttl}
	stamps := []int64{math.MinInt64, math.MinInt64 + 1, -int64(ttl) - 1, -1, 0, 1, int64(ttl), int64(ttl) + 1,
		1_700_000_000_000_000_000, math.MaxInt64 - int64(ttl), math.MaxInt64 - 1, math.MaxInt64}
	for _, now := range stamps {
		for _, seen := range stamps {
			for _, dt := range []int64{-int64(ttl) - 1, -int64(ttl), -1, 0, 1} {
				s := seen + dt
				if (dt < 0 && s > seen) || (dt > 0 && s < seen) {
					continue // wrapped
				}
				want := time.Unix(0, now).Sub(time.Unix(0, s)) <= ttl
				if got := r.alive(&registryEntry{seen: s}, now); got != want {
					t.Errorf("alive(seen %d, now %d) = %v, time.Sub says %v", s, now, got, want)
				}
			}
		}
	}
}
