package ishare

import (
	"net"
	"reflect"
	"testing"
	"time"
)

func TestBrokerPicksLeastLoadedNode(t *testing.T) {
	reg := startRegistry(t, time.Second)
	idle := startNode(t, NodeConfig{Name: "idle", RegistryAddr: reg.Addr(), HostLoad: 0.05})
	busy := startNode(t, NodeConfig{Name: "busy", RegistryAddr: reg.Addr(), HostLoad: 0.45})
	_ = busy
	over := startNode(t, NodeConfig{Name: "over", RegistryAddr: reg.Addr(), HostLoad: 0.95})
	_ = over

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

// infoStub listens as a node whose info always reports state.
func infoStub(t *testing.T, state string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(conn, Limits{}, func(Request) *Response {
				return &Response{OK: true, Info: &NodeStatus{State: state}}
			})
		}
	}()
	return ln.Addr().String()
}

// TestRankingOrderUnchanged: the ranked list a shard serves and the
// candidates a broker returns, legacy and ranked, come in the order the
// sorts they replaced gave — an insertion sort and a selection sort, kept
// here as the oracle — on a fleet with ties on score and on score and load.
func TestRankingOrderUnchanged(t *testing.T) {
	s1, s2, s3 := infoStub(t, "S1(full)"), infoStub(t, "S2(lowest-priority)"), infoStub(t, "S3(cpu-unavail)")
	reg := startRegistry(t, time.Minute)
	if err := (&Client{}).RegisterBatch(ctx, reg.Addr(), []NodeDigest{
		{Name: "a", Addr: s1, State: "S1(full)", Load: 0.10},
		{Name: "b", Addr: s1, State: "S1(full)", Load: 0.10},
		{Name: "c", Addr: s1, State: "S1(full)", Load: 0.05},
		{Name: "d", Addr: s2, State: "S2(lowest-priority)", Load: 0.10},
		{Name: "e", Addr: s2, State: "S2(lowest-priority)"},
		{Name: "f", Addr: s2, State: "S2(lowest-priority)", Load: 0.10},
		{Name: "g", Addr: s1, State: "S1(full)", Load: 0.30},
		{Name: "h", Addr: s3, State: "S3(cpu-unavail)", Load: 0.01},
		{Name: "i", Addr: s1}, // a legacy agent: no digest, asked for its state in either mode
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
	if want := []string{"c", "a", "b", "g", "e", "d", "f", "i"}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(listed, oracle) {
		t.Errorf("ranked list order %v, want %v", got, want)
	}

	for _, limit := range []int{0, 32} {
		cands, err := (&Broker{Client: &Client{RegistryAddr: reg.Addr()}, DiscoverLimit: limit}).Candidates(ctx)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make([]Candidate, len(cands))
		for i, c := range cands {
			oracle[len(cands)-1-i] = c
		}
		less := func(a, b Candidate) bool {
			if a.Score != b.Score {
				return a.Score < b.Score
			}
			if a.Node.Load != b.Node.Load {
				return a.Node.Load < b.Node.Load
			}
			return a.Node.Name < b.Node.Name
		}
		for i := range oracle {
			best := i
			for j := i + 1; j < len(oracle); j++ {
				if less(oracle[j], oracle[best]) {
					best = j
				}
			}
			oracle[i], oracle[best] = oracle[best], oracle[i]
		}
		got := names(len(cands), func(i int) string { return cands[i].Node.Name })
		if want := []string{"i", "c", "a", "b", "g", "e", "d", "f"}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(cands, oracle) {
			t.Errorf("DiscoverLimit %d: candidate order %v, want %v", limit, got, want)
		}
	}
}
