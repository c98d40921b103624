package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ishare"
	"repro/internal/obs"
)

// TestChaosSoak drives a registry and four nodes through a scripted fault
// schedule — flaky heartbeats, a corrupted and delayed discovery path, a
// full registry partition window, and a node crash at a virtual time — and
// asserts the resilience invariants end to end:
//
//   - every submitted job eventually completes exactly once (node-side
//     execution counts, not just broker-side results);
//   - resumed jobs report cumulative virtual compute equal to a no-fault
//     run of the same specs, within monitor-period slack;
//   - the broker serves placements from its last-known-good cache during
//     the partition window.
//
// The schedule is deterministic: fault decisions draw from fixed seeds and
// the scripted windows are toggled explicitly. Run with -race; job time is
// virtual, so the soak costs seconds of wall clock.
func TestChaosSoak(t *testing.T) {
	reg := startRegistry(t, 500*time.Millisecond)

	// Nodes heartbeat through their own injector so flaky heartbeats
	// cannot perturb the client-side fault sequence.
	nodeInj := newProbe(1002)
	nodeInj.Add(Fault{Name: "hb-flake", Addr: reg.Addr(), RefuseProb: 0.15})

	nodeCfg := func(name string, load float64) ishare.NodeConfig {
		return ishare.NodeConfig{
			Name:                name,
			RegistryAddrs:       []string{reg.Addr()},
			HostLoad:            load,
			HeartbeatEvery:      25 * time.Millisecond,
			HeartbeatMaxBackoff: 100 * time.Millisecond,
			Dialer:              nodeInj,
		}
	}

	// a-crash dies at virtual t=90s — mid-job, taking the guest with it
	// (URR/S5). b-slow caps each submission's virtual budget, so long
	// jobs time out there with a checkpoint (UEC-style revocation).
	// Load ordering makes placement deterministic: a-crash ranks first,
	// b-slow is the failover target, c/d back-fill.
	crashCfg := nodeCfg("a-crash", 0.05)
	crashCfg.CrashAtVirtual = 90 * time.Second
	aCrash := startNode(t, crashCfg)
	slowCfg := nodeCfg("b-slow", 0.10)
	slowCfg.MaxJobVirtual = 120 * time.Second
	bSlow := startNode(t, slowCfg)
	cIdle := startNode(t, nodeCfg("c-idle", 0.20))
	dIdle := startNode(t, nodeCfg("d-idle", 0.25))
	nodes := map[string]*ishare.Node{"a-crash": aCrash, "b-slow": bSlow, "c-idle": cIdle, "d-idle": dIdle}

	clientInj := newProbe(42)
	// Deterministic low-grade noise on the discovery path: the first
	// registry exchange is corrupted, the next two are delayed. The
	// client's retry budget must absorb all of it.
	clientInj.Add(Fault{Name: "list-corrupt", Addr: reg.Addr(), CorruptProb: 1, Times: 1})
	clientInj.Add(Fault{Name: "list-lag", Addr: reg.Addr(), ReadLatency: 5 * time.Millisecond, Times: 2, Skip: 1})

	broker := &ishare.Broker{
		Client: &ishare.Client{
			Shards:  []string{reg.Addr()},
			Timeout: 2 * time.Second,
			Dialer:  clientInj,
			Retry:   ishare.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond, Seed: 7},
		},
		CacheTTL:   30 * time.Second,
		MaxRounds:  12,
		RoundDelay: 10 * time.Millisecond,
		// The soak's recovery assertions read the obs registry (the
		// scrapable source of truth), not just the Metrics() snapshot.
		Obs: obs.NewRegistry(),
	}

	specs := []ishare.JobSpec{
		{Name: "alpha", ID: "soak-alpha", CPUSeconds: 240, RSSMB: 48},
		{Name: "beta", ID: "soak-beta", CPUSeconds: 120, RSSMB: 48},
		{Name: "gamma", ID: "soak-gamma", CPUSeconds: 60, RSSMB: 32},
		{Name: "delta", ID: "soak-delta", CPUSeconds: 120, RSSMB: 48},
	}
	results := map[string]*ishare.JobResult{}
	submit := func(spec ishare.JobSpec) {
		t.Helper()
		res, onNode, err := broker.SubmitBest(ctx, spec)
		if err != nil {
			t.Fatalf("job %s: %v (metrics %+v)", spec.Name, err, broker.Metrics())
		}
		if !res.Completed {
			t.Fatalf("job %s did not complete: %+v", spec.Name, res)
		}
		t.Logf("job %s completed on %s: cpu=%.1f resumedFrom=%.1f deduped=%v",
			spec.Name, onNode.Name, res.GuestCPUSeconds, res.ResumedFrom, res.Deduped)
		results[spec.ID] = res
	}

	// Phase 1 — crash and checkpointed resubmission: alpha lands on
	// a-crash (best name among S1 candidates), which dies mid-job; the
	// broker fails over and shepherds the job through b-slow's budget
	// kills to completion.
	submit(specs[0])
	m := broker.Metrics()
	if m.Failovers == 0 {
		t.Errorf("phase 1: expected a failover after the node crash, metrics %+v", m)
	}
	if m.Resubmissions == 0 {
		t.Errorf("phase 1: expected checkpointed resubmissions, metrics %+v", m)
	}
	if results["soak-alpha"].ResumedFrom == 0 {
		t.Errorf("phase 1: alpha's completing run should have resumed from a checkpoint: %+v", results["soak-alpha"])
	}

	// Phase 2 — registry partition window: both directions go dark. The
	// broker must keep placing from its last-known-good node list and the
	// nodes must keep serving while their heartbeats fail.
	clientInj.Partition(reg.Addr())
	nodeInj.Partition(reg.Addr())
	staleBase := broker.Metrics().StaleServes
	submit(specs[1])
	submit(specs[2])
	if m := broker.Metrics(); m.StaleServes <= staleBase {
		t.Errorf("phase 2: no placements served from the stale cache, metrics %+v", m)
	}
	clientInj.Heal(reg.Addr())
	nodeInj.Heal(reg.Addr())

	// Phase 3 — recovery: heartbeats resume, the registry view heals
	// (a-crash stays dead), and placement works registry-fresh again.
	waitAlive := time.Now().Add(3 * time.Second)
	for {
		nodes, err := broker.Client.List(ctx)
		var alive []string
		for _, n := range nodes {
			if n.Alive {
				alive = append(alive, n.Name)
			}
		}
		if err == nil && len(alive) >= 3 {
			break
		}
		if time.Now().After(waitAlive) {
			t.Fatalf("registry view never healed: %v, err %v", alive, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	submit(specs[3])

	// Phase 4 — exactly-once via dedup: resubmitting a completed ID must be
	// answered from the node's completed-job cache, and the broker must
	// count the hit.
	dedupRes, _, err := broker.SubmitBest(ctx, specs[3])
	if err != nil {
		t.Fatalf("phase 4 resubmission: %v", err)
	}
	if !dedupRes.Deduped {
		t.Errorf("phase 4: resubmitted job was not deduped: %+v", dedupRes)
	}

	// The recovery counters must be visible through the obs registry — the
	// same numbers a Prometheus scrape of a live broker would report.
	final := broker.Metrics()
	if final.Failovers == 0 || final.StaleServes == 0 || final.DedupHits == 0 {
		t.Errorf("recovery counters incomplete: %+v", final)
	}
	var scrape bytes.Buffer
	if err := broker.Obs.WritePrometheus(&scrape); err != nil {
		t.Fatalf("scraping broker registry: %v", err)
	}
	for metric, val := range map[string]int{
		"fgcs_broker_failovers_total":     final.Failovers,
		"fgcs_broker_stale_serves_total":  final.StaleServes,
		"fgcs_broker_dedup_hits_total":    final.DedupHits,
		"fgcs_broker_resubmissions_total": final.Resubmissions,
	} {
		want := fmt.Sprintf("%s %d", metric, val)
		if !strings.Contains(scrape.String(), want) {
			t.Errorf("scrape missing %q (Metrics() and registry disagree?)\n%s", want, scrape.String())
		}
	}

	// Exactly-once: across every node, each job ID completed exactly one
	// execution, and the crashed node completed none.
	for _, spec := range specs {
		total := 0
		for name, n := range nodes {
			c := n.ExecutionCounts()[spec.ID]
			if name == "a-crash" && c != 0 {
				t.Errorf("crashed node completed %q %d times", spec.ID, c)
			}
			total += c
		}
		if total != 1 {
			t.Errorf("job %s executed %d times across the fleet, want exactly once", spec.ID, total)
		}
	}

	// Fault counters prove the schedule actually fired.
	cc, nc := clientInj.Counters(), nodeInj.Counters()
	if cc.Corrupted != 1 {
		t.Errorf("client corruptions = %d, want 1", cc.Corrupted)
	}
	if cc.Delayed < 1 {
		t.Errorf("client delays = %d, want >= 1", cc.Delayed)
	}
	if cc.Refused == 0 {
		t.Errorf("client partition never refused a dial: %+v", cc)
	}
	if nc.Refused == 0 {
		t.Errorf("node heartbeats never dropped: %+v", nc)
	}

	// No-fault parity: the same specs on a healthy single-node system
	// must deliver the same total virtual compute, within monitor-period
	// slack per extra attempt. Checkpointed resumption — not restarting
	// from zero — is what keeps the faulty run's totals equal.
	refReg := startRegistry(t, time.Minute)
	startNode(t, ishare.NodeConfig{Name: "ref-idle", RegistryAddrs: []string{refReg.Addr()}, HostLoad: 0.05})
	refBroker := ishare.NewBroker(refReg.Addr())
	const slack = 15.0
	for _, spec := range specs {
		ref := spec
		ref.ID = "ref-" + spec.ID
		res, _, err := refBroker.SubmitBest(ctx, ref)
		if err != nil {
			t.Fatalf("no-fault run of %s: %v", spec.Name, err)
		}
		got := results[spec.ID].GuestCPUSeconds
		if diff := got - res.GuestCPUSeconds; diff < -slack || diff > slack {
			t.Errorf("job %s: faulty-run cpu %.1f vs no-fault %.1f (|diff| > %.0f)",
				spec.Name, got, res.GuestCPUSeconds, slack)
		}
	}
}

// TestChaosSmoke is the short deterministic-seed run wired into `make ci`:
// one partition window and one transient refusal burst over a two-node
// system, asserting completion and exactly-once in well under a second.
func TestChaosSmoke(t *testing.T) {
	reg := startRegistry(t, time.Minute)
	n1 := startNode(t, ishare.NodeConfig{Name: "s1", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	n2 := startNode(t, ishare.NodeConfig{Name: "s2", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.1})

	inj := New(7)
	inj.Add(Fault{Name: "burst", Addr: reg.Addr(), Refuse: true, Times: 2})
	broker := &ishare.Broker{
		Client: &ishare.Client{
			Shards:  []string{reg.Addr()},
			Timeout: time.Second,
			Dialer:  inj,
			Retry:   ishare.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7},
		},
		CacheTTL: 30 * time.Second,
	}

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("smoke-%d", i)
		if i == 1 {
			inj.Partition(reg.Addr())
		}
		res, _, err := broker.SubmitBest(ctx, ishare.JobSpec{Name: id, ID: id, CPUSeconds: 30, RSSMB: 32})
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if !res.Completed {
			t.Fatalf("job %s: %+v", id, res)
		}
		if i == 1 {
			inj.Heal(reg.Addr())
		}
		if got := n1.ExecutionCounts()[id] + n2.ExecutionCounts()[id]; got != 1 {
			t.Fatalf("job %s executed %d times, want 1", id, got)
		}
	}
	if m := broker.Metrics(); m.StaleServes == 0 {
		t.Errorf("partition window never hit the stale cache: %+v", m)
	}
}
