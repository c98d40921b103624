package ishare

import (
	"testing"
	"time"

	"repro/internal/simos"
)

// TestNodePipelinePinned pins a node's detection pipeline end to end: on a
// fixed-seed machine, the exact status every Info call reports and the
// whole JobResult of a submission that is suspended on a transient spike
// and then killed by sustained overload, and of one that completes once the
// host load drops. The values were recorded before the node moved onto
// monitor.Engine and must not move.
func TestNodePipelinePinned(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "pin", Machine: simos.LinuxLabMachine(33)})
	c := &Client{}
	var got []NodeStatus
	info := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			st, err := c.Info(ctx, node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, *st)
		}
	}
	info(2)
	setHost(node, 0.4, 0)
	info(3)
	setHost(node, 0.9, 0)
	res, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "pinned", CPUSeconds: 600, ID: "pin-1"})
	if err != nil {
		t.Fatal(err)
	}
	info(3)
	setHost(node, 0.1, 0)
	info(2)
	res2, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "pinned-2", CPUSeconds: 30, RSSMB: 32})
	if err != nil {
		t.Fatal(err)
	}
	info(2)

	want := []NodeStatus{
		{State: "S1(full)", HostCPU: 0, FreeMemMB: 1136, VirtualNowMS: 5000},
		{State: "S1(full)", HostCPU: 0, FreeMemMB: 1136, VirtualNowMS: 10000},
		{State: "S2(lowest-priority)", HostCPU: 0.3828, FreeMemMB: 1136, VirtualNowMS: 15000},
		{State: "S2(lowest-priority)", HostCPU: 0.4318, FreeMemMB: 1136, VirtualNowMS: 20000},
		{State: "S2(lowest-priority)", HostCPU: 0.374, FreeMemMB: 1136, VirtualNowMS: 25000},
		{State: "S3(cpu-unavail)", HostCPU: 0.947, FreeMemMB: 1136, VirtualNowMS: 100000},
		{State: "S3(cpu-unavail)", HostCPU: 0.8752, FreeMemMB: 1136, VirtualNowMS: 105000},
		{State: "S3(cpu-unavail)", HostCPU: 0.9198, FreeMemMB: 1136, VirtualNowMS: 110000},
		{State: "S1(full)", HostCPU: 0.1034, FreeMemMB: 1136, VirtualNowMS: 115000},
		{State: "S1(full)", HostCPU: 0.1044, FreeMemMB: 1136, VirtualNowMS: 120000},
		{State: "S1(full)", HostCPU: 0.1002, FreeMemMB: 1136, VirtualNowMS: 160000},
		{State: "S1(full)", HostCPU: 0.104, FreeMemMB: 1136, VirtualNowMS: 165000},
	}
	if len(got) != len(want) {
		t.Fatalf("%d statuses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("info %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	wantJobs := []JobResult{
		{Outcome: "killed", FinalState: "S3(cpu-unavail)", GuestCPUSeconds: 3.735, WallSeconds: 70, Suspensions: 1},
		{Completed: true, Outcome: "completed", FinalState: "S1(full)", GuestCPUSeconds: 30, WallSeconds: 35},
	}
	for i, res := range []*JobResult{res, res2} {
		if *res != wantJobs[i] {
			t.Errorf("job %d = %+v, want %+v", i, *res, wantJobs[i])
		}
	}
}

// TestNodeCrashHidesLastStep: the node checks CrashAtVirtual after the
// engine's step, so the detector observes the step that crosses the crash
// point. Nothing from that observation may leave the node: no reply and no
// change to the digest that heartbeats carry. Here the crossing step is a
// job's first, under a fresh 0.95 host load that moves the state to S2.
func TestNodeCrashHidesLastStep(t *testing.T) {
	node := startNode(t, NodeConfig{
		Name: "doomed", Machine: simos.LinuxLabMachine(33), CrashAtVirtual: 20 * time.Second,
	})
	c := &Client{Timeout: time.Second}
	for i := 0; i < 3; i++ {
		if _, err := c.Info(ctx, node.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	setHost(node, 0.95, 0)
	before := node.selfDigest()
	if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "lost", CPUSeconds: 600}); err == nil {
		t.Fatal("submission across the crash point should fail")
	}
	after := node.selfDigest()
	if after.State != before.State || after.Load != before.Load || after.Gen != before.Gen {
		t.Errorf("digest after crash = %s/%v/%d, want %s/%v/%d",
			after.State, after.Load, after.Gen, before.State, before.Load, before.Gen)
	}
}

// TestNodeProcessListBounded: a node spawns a guest per submission and a
// host per setHost. Its machine drops dead processes at the next step, so
// after any submission the list holds the live processes plus at most the
// guest that just ended — not every process the node ever spawned.
func TestNodeProcessListBounded(t *testing.T) {
	node := startNode(t, NodeConfig{Name: "busy", HostLoad: 0.1})
	c := &Client{}
	for i := 0; i < 200; i++ {
		setHost(node, 0.1, 0)
		if _, err := c.Submit(ctx, node.Addr(), JobSpec{Name: "j", CPUSeconds: 5}); err != nil {
			t.Fatal(err)
		}
		node.mu.Lock()
		procs, live := len(node.machine.Processes()), node.machine.LiveCount()
		node.mu.Unlock()
		if procs > live+1 {
			t.Fatalf("after %d submissions the machine tracks %d processes, %d live", i+1, procs, live)
		}
	}
}
