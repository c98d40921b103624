package ishare

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBrokerPicksLeastLoadedNode(t *testing.T) {
	reg := startRegistry(t, time.Second)
	idle := startNode(t, NodeConfig{Name: "idle", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	busy := startNode(t, NodeConfig{Name: "busy", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.45})
	over := startNode(t, NodeConfig{Name: "over", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.95})

	b := NewBroker(reg.Addr())
	// Let the overloaded node's detector see a few samples so its state
	// reflects the sustained load (info advances the machine per call).
	c := &Client{}
	for i := 0; i < 15; i++ {
		if _, err := c.Info(ctx, over.Addr()); err != nil {
			t.Fatal(err)
		}
		c.Info(ctx, busy.Addr())
		c.Info(ctx, idle.Addr())
	}
	waitListed(t, reg, idle, busy, over)

	cands, err := b.Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Node.Name != "idle" {
		t.Fatalf("best candidate = %s (%s), want idle", cands[0].Node.Name, cands[0].State)
	}
	// The overloaded node must not appear once it has latched S3.
	for _, cand := range cands {
		if cand.Node.Name == "over" && cand.Score >= 0 && cand.State[0:2] == "S3" {
			t.Fatalf("overloaded node offered as candidate: %+v", cand)
		}
	}

	res, node, err := b.SubmitBest(ctx, JobSpec{Name: "brokered", CPUSeconds: 60, RSSMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "idle" {
		t.Errorf("job placed on %s, want idle", node.Name)
	}
	if !res.Completed {
		t.Errorf("brokered job should complete on the idle node: %+v", res)
	}
}

// waitListed waits until the registry lists each node's current digest: a
// node's state reaches discovery on its next heartbeat.
func waitListed(t *testing.T, reg *Registry, nodes ...*Node) {
	t.Helper()
	c := &Client{Shards: []string{reg.Addr()}}
	deadline := time.Now().Add(3 * time.Second)
	for {
		listed, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]NodeInfo, len(listed))
		for _, n := range listed {
			byName[n.Name] = n
		}
		current := true
		for _, n := range nodes {
			d, got := n.selfDigest(), byName[n.cfg.Name]
			current = current && got.State == d.State && got.Load == d.Load && got.Gen == d.Gen
		}
		if current {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never listed the nodes' current digests: %+v", listed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBrokerNoResources(t *testing.T) {
	reg := startRegistry(t, time.Second)
	b := NewBroker(reg.Addr())
	if _, _, err := b.SubmitBest(ctx, JobSpec{Name: "j", CPUSeconds: 10}); err == nil {
		t.Error("empty registry should fail submission")
	}
}

func TestRankState(t *testing.T) {
	tests := []struct {
		state string
		want  int
	}{
		{"S1(full)", 0},
		{"S2(lowest-priority)", 1},
		{"S3(cpu-unavail)", -1},
		{"S4(mem-thrash)", -1},
		{"S5(machine-unavail)", -1},
		{"garbage", -1},
	}
	for _, tt := range tests {
		if got := rankState(tt.state); got != tt.want {
			t.Errorf("rankState(%q) = %d, want %d", tt.state, got, tt.want)
		}
	}
}

// TestRankingOrderUnchanged: the ranked list a shard serves and the
// candidates a broker returns come in the order the sorts they replaced
// gave — an insertion sort and a selection sort, kept here as the oracle —
// on a fleet with ties on score and on score and load.
func TestRankingOrderUnchanged(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	if err := (&Client{}).RegisterBatch(ctx, reg.Addr(), []NodeDigest{
		{Name: "a", Addr: "10.0.0.1:1", State: "S1(full)", Load: 0.10},
		{Name: "b", Addr: "10.0.0.2:1", State: "S1(full)", Load: 0.10},
		{Name: "c", Addr: "10.0.0.3:1", State: "S1(full)", Load: 0.05},
		{Name: "d", Addr: "10.0.0.4:1", State: "S2(lowest-priority)", Load: 0.10},
		{Name: "e", Addr: "10.0.0.5:1", State: "S2(lowest-priority)"},
		{Name: "f", Addr: "10.0.0.6:1", State: "S2(lowest-priority)", Load: 0.10},
		{Name: "g", Addr: "10.0.0.7:1", State: "S1(full)", Load: 0.30},
		{Name: "h", Addr: "10.0.0.8:1", State: "S3(cpu-unavail)", Load: 0.01},
	}); err != nil {
		t.Fatal(err)
	}
	names := func(n int, name func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		return out
	}
	want := []string{"c", "a", "b", "g", "e", "d", "f"}

	listed, err := (&Client{}).ListShard(ctx, reg.Addr(), 32)
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]NodeInfo, len(listed))
	for i, n := range listed {
		oracle[len(listed)-1-i] = n
	}
	less := func(a, b NodeInfo) bool {
		if sa, sb := digestScore(a.State), digestScore(b.State); sa != sb {
			return sa < sb
		}
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		return a.Name < b.Name
	}
	for i := 1; i < len(oracle); i++ {
		for j := i; j > 0 && less(oracle[j], oracle[j-1]); j-- {
			oracle[j], oracle[j-1] = oracle[j-1], oracle[j]
		}
	}
	got := names(len(listed), func(i int) string { return listed[i].Name })
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(listed, oracle) {
		t.Errorf("ranked list order %v, want %v", got, want)
	}

	cands, err := NewBroker(reg.Addr()).Candidates(ctx)
	if err != nil {
		t.Fatal(err)
	}
	candOracle := make([]Candidate, len(cands))
	for i, c := range cands {
		candOracle[len(cands)-1-i] = c
	}
	candLess := func(a, b Candidate) bool {
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		if a.Node.Load != b.Node.Load {
			return a.Node.Load < b.Node.Load
		}
		return a.Node.Name < b.Node.Name
	}
	for i := range candOracle {
		best := i
		for j := i + 1; j < len(candOracle); j++ {
			if candLess(candOracle[j], candOracle[best]) {
				best = j
			}
		}
		candOracle[i], candOracle[best] = candOracle[best], candOracle[i]
	}
	got = names(len(cands), func(i int) string { return cands[i].Node.Name })
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(cands, candOracle) {
		t.Errorf("candidate order %v, want %v", got, want)
	}
}

// cannedShards answers list on n listeners with the reply set for each, as
// a shard's reply is outside input to a broker: in any order, with any
// state, a name another shard lists too.
type cannedShards struct {
	addrs   []string
	mu      sync.Mutex
	replies [][]NodeInfo
}

func startCannedShards(t *testing.T, n int) *cannedShards {
	t.Helper()
	cs := &cannedShards{replies: make([][]NodeInfo, n)}
	for i := range n {
		cs.addrs = append(cs.addrs, startServer(t, Limits{}, func(Request) *Response {
			cs.mu.Lock()
			defer cs.mu.Unlock()
			return &Response{OK: true, Nodes: cs.replies[i]}
		}))
	}
	return cs
}

// rankStates are the states a random fleet draws from: both forms of S1 and
// S2, states that cannot host a guest, no digest, and a value that is none.
var rankStates = []string{"S1(full)", "S1", "S2(lowest-priority)", "S2", "S3(cpu-unavail)", "S5(machine-unavail)", "", "garbage"}

// rankLoads has ties, so the names decide.
var rankLoads = []float64{0, 0.1, 0.1, 0.25, 0.5}

// TestRankingMatchesStableSort: over random shard replies — tied loads,
// S1/S2 mixed with states that cannot host, unsorted replies and one name
// on two shards — Candidates returns what a stable sort of the concatenated
// replies by rankCmp returns; and a shard's ranked list, at any limit, is
// its best alive nodes in that sort's order.
func TestRankingMatchesStableSort(t *testing.T) {
	rng := newTestRand(t.Name())
	cs := startCannedShards(t, 4)
	for trial := 0; trial < 40; trial++ {
		shards := 1 + rng.Intn(len(cs.addrs))
		replies := make([][]NodeInfo, shards)
		for s := range replies {
			for i := rng.Intn(20); i > 0; i-- {
				replies[s] = append(replies[s], NodeInfo{Name: fmt.Sprintf("s%d-n%02d", s, rng.Intn(100)),
					Addr: fmt.Sprintf("10.0.%d.%d:1", s, i), Alive: true, LastSeenMS: int64(trial),
					State: rankStates[rng.Intn(len(rankStates))], Load: rankLoads[rng.Intn(len(rankLoads))], Gen: int64(i)})
			}
			if rng.Intn(2) == 0 { // ranked, as a shard sends it
				slices.SortStableFunc(replies[s], func(a, b NodeInfo) int {
					return rankCmp(digestScore(a.State), digestScore(b.State), &a, &b)
				})
			}
		}
		if last := replies[shards-1]; shards > 1 && len(replies[0]) > 0 && len(last) > 0 {
			// One name on two shards: equal on every rank key, told apart by addr.
			dup := replies[0][rng.Intn(len(replies[0]))]
			dup.Addr = "10.9.9.9:1"
			last[rng.Intn(len(last))] = dup
		}
		cs.mu.Lock()
		copy(cs.replies, replies)
		cs.mu.Unlock()

		var want []Candidate
		for _, r := range replies {
			for _, n := range r {
				if score := rankState(n.State); score >= 0 {
					want = append(want, Candidate{Node: n, State: n.State, Score: score})
				}
			}
		}
		slices.SortStableFunc(want, func(a, b Candidate) int { return rankCmp(a.Score, b.Score, &a.Node, &b.Node) })
		got, err := (&Broker{Client: &Client{Shards: cs.addrs[:shards]}}).Candidates(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: candidates\n%+v\nwant\n%+v", trial, got, want)
		}
	}

	for trial := 0; trial < 10; trial++ {
		clock := time.Unix(1_700_000_000, 0)
		reg, err := NewRegistryWithOptions("127.0.0.1:0", RegistryOptions{TTL: time.Minute, Now: func() time.Time { return clock }})
		if err != nil {
			t.Fatal(err)
		}
		// A first half registered two TTLs ago, whose entries are dead now.
		var hostable []NodeInfo // alive S1 and S2 nodes, as list answers them
		for half := 0; half < 2; half++ {
			var batch []NodeDigest
			for i := rng.Intn(60); i > 0; i-- {
				batch = append(batch, NodeDigest{Name: fmt.Sprintf("h%d-n%03d", half, i), Addr: "10.0.0.1:1",
					State: rankStates[rng.Intn(len(rankStates))], Load: rankLoads[rng.Intn(len(rankLoads))], Gen: 1})
			}
			if resp := reg.handle(Request{Op: "register_batch", Digests: batch}); !resp.OK {
				t.Fatal(resp.Error)
			}
			if half == 1 {
				for _, d := range batch {
					if digestScore(d.State) <= 1 {
						hostable = append(hostable, NodeInfo{Name: d.Name, Addr: d.Addr, Alive: true,
							LastSeenMS: clock.UnixMilli(), State: d.State, Load: d.Load, Gen: d.Gen})
					}
				}
			}
			clock = clock.Add(2 * time.Minute)
		}
		clock = clock.Add(-2 * time.Minute)
		byRank := func(a, b NodeInfo) int { return rankCmp(digestScore(a.State), digestScore(b.State), &a, &b) }
		slices.SortStableFunc(hostable, byRank)
		for _, limit := range []int{1, 3, 8, 1000} {
			got := reg.listRanked(limit).Nodes
			sorted := slices.Clone(got)
			slices.SortStableFunc(sorted, byRank)
			if !reflect.DeepEqual(got, sorted) {
				t.Fatalf("trial %d, limit %d: list not ranked:\n%+v", trial, limit, got)
			}
			n := min(limit, len(hostable))
			s1 := func(l []NodeInfo) int {
				return len(l) - len(slices.DeleteFunc(slices.Clone(l), func(n NodeInfo) bool { return digestScore(n.State) == 0 }))
			}
			if len(got) != n || s1(got) != s1(hostable[:n]) {
				t.Fatalf("trial %d, limit %d: listed %+v, want the best %d of %+v", trial, limit, got, n, hostable)
			}
			if limit >= len(hostable) && n > 0 && !reflect.DeepEqual(got, hostable) {
				t.Fatalf("trial %d, limit %d: listed\n%+v\nwant\n%+v", trial, limit, got, hostable)
			}
		}
		reg.Close()
	}
}

// BenchmarkListRanked is a shard's ranked list in process, no TCP: a
// 25 000-node shard, S1 and S2 mixed with nodes that cannot host, a limit
// of 32 (the broker's default).
func BenchmarkListRanked(b *testing.B) {
	r := benchRegistry(b, false, false)
	ds := benchDigests(25_000)
	for i := range ds {
		ds[i].State = []string{"S1(full)", "S2(lowest-priority)", "S1(full)", "S3(cpu-unavail)"}[i%4]
		ds[i].Load = float64(i%97) / 97
	}
	if resp := r.handle(Request{Op: "register_batch", Digests: ds}); !resp.OK {
		b.Fatal(resp.Error)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := r.listRanked(32); len(resp.Nodes) != 32 {
			b.Fatalf("listed %d", len(resp.Nodes))
		}
	}
}

// BenchmarkCandidates is the broker's merge of two shards' ranked 32-node
// replies into its candidate list, in process, no TCP.
func BenchmarkCandidates(b *testing.B) {
	lists := make([][]NodeInfo, 2)
	for s := range lists {
		for i := 0; i < 32; i++ {
			lists[s] = append(lists[s], NodeInfo{Name: fmt.Sprintf("s%d-n%02d", s, i), Addr: "10.0.0.1:1", Alive: true,
				State: []string{"S1(full)", "S2(lowest-priority)"}[i%3/2], Load: float64(i%7) / 7, Gen: 1})
		}
		slices.SortFunc(lists[s], func(a, b NodeInfo) int {
			return rankCmp(digestScore(a.State), digestScore(b.State), &a, &b)
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := rankCandidates(lists, false); len(cands) != 64 {
			b.Fatalf("%d candidates", len(cands))
		}
	}
}
