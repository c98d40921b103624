package ishare

import (
	"reflect"
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
