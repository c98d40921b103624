package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simos"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestCPUBoundNeverSleeps(t *testing.T) {
	var b CPUBound
	for i := 0; i < 10; i++ {
		c, s, ok := b.NextPhase(rng(1))
		if !ok || c <= 0 || s != 0 {
			t.Fatalf("CPUBound phase = (%v, %v, %v)", c, s, ok)
		}
	}
}

func TestDutyCycleRatio(t *testing.T) {
	r := rng(2)
	for _, usage := range []float64{0.1, 0.4, 0.9} {
		d := &DutyCycle{Usage: usage, Jitter: 0.2}
		// Skip the randomized initial offset phase.
		d.NextPhase(r)
		var compute, total time.Duration
		for i := 0; i < 200; i++ {
			c, s, ok := d.NextPhase(r)
			if !ok {
				t.Fatal("DutyCycle terminated")
			}
			compute += c
			total += c + s
		}
		got := float64(compute) / float64(total)
		if math.Abs(got-usage) > 0.01 {
			t.Errorf("usage %v: achieved %v", usage, got)
		}
	}
}

func TestDutyCycleInitialOffsetDesynchronizes(t *testing.T) {
	r := rng(3)
	first := make(map[time.Duration]bool)
	for i := 0; i < 20; i++ {
		d := &DutyCycle{Usage: 0.5}
		c, s, _ := d.NextPhase(r)
		if c != 0 {
			continue // offset can be zero occasionally
		}
		first[s] = true
	}
	if len(first) < 10 {
		t.Errorf("initial offsets not randomized: %d distinct", len(first))
	}
}

func TestDutyCycleClampsUsage(t *testing.T) {
	r := rng(4)
	d := &DutyCycle{Usage: 1.7}
	d.NextPhase(r)
	c, s, _ := d.NextPhase(r)
	if s != 0 || c != DefaultPeriod {
		t.Errorf("over-unity usage should clamp: compute %v sleep %v", c, s)
	}
	d2 := &DutyCycle{Usage: -0.5}
	d2.NextPhase(r)
	c, _, _ = d2.NextPhase(r)
	if c != 0 {
		t.Errorf("negative usage should clamp to 0, got compute %v", c)
	}
}

func TestFiniteWork(t *testing.T) {
	r := rng(5)
	f := &FiniteWork{Total: 6 * time.Second, Usage: 1}
	var consumed time.Duration
	for {
		c, s, ok := f.NextPhase(r)
		if !ok {
			break
		}
		if s != 0 {
			t.Fatalf("fully CPU-bound job should not sleep, got %v", s)
		}
		consumed += c
	}
	if consumed != 6*time.Second {
		t.Errorf("consumed %v, want 6s", consumed)
	}
	if f.consumed < f.Total {
		t.Errorf("consumed %v of %v, want all of it", f.consumed, f.Total)
	}
}

func TestFiniteWorkPartialUsage(t *testing.T) {
	r := rng(6)
	f := &FiniteWork{Total: 2 * time.Second, Usage: 0.5}
	var compute, sleep time.Duration
	for {
		c, s, ok := f.NextPhase(r)
		if !ok {
			break
		}
		compute += c
		sleep += s
	}
	if compute != 2*time.Second {
		t.Errorf("compute = %v, want 2s", compute)
	}
	ratio := float64(compute) / float64(compute+sleep)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("duty ratio = %v, want ~0.5", ratio)
	}
}

func TestTable1Profiles(t *testing.T) {
	guests := SPECGuests()
	if len(guests) != 4 {
		t.Fatalf("got %d guests, want 4", len(guests))
	}
	// Spot-check Table 1 values.
	apsi := guests[0]
	if apsi.Name != "apsi" || apsi.ResidentMB != 193 || apsi.VirtualMB != 205 {
		t.Errorf("apsi profile = %+v", apsi)
	}
	for _, g := range guests {
		if g.CPUUsage < 0.97 {
			t.Errorf("%s: guests are CPU-bound, usage %v", g.Name, g.CPUUsage)
		}
		if g.RSS() != g.ResidentMB*simos.MB {
			t.Errorf("%s: RSS mismatch", g.Name)
		}
	}
	hosts := MusbusWorkloads()
	if len(hosts) != 6 {
		t.Fatalf("got %d host workloads, want 6", len(hosts))
	}
	if h5 := hosts[4]; h5.Name != "H5" || h5.CPUUsage != 0.570 || h5.ResidentMB != 210 {
		t.Errorf("H5 profile = %+v", h5)
	}
	for _, p := range append(guests, hosts...) {
		if p.String() == "" {
			t.Errorf("%s: empty String", p.Name)
		}
	}
}

func TestProfileLookups(t *testing.T) {
	if g, ok := GuestByName("mcf"); !ok || g.ResidentMB != 96 {
		t.Errorf("GuestByName(mcf) = %+v, %v", g, ok)
	}
	if _, ok := GuestByName("nope"); ok {
		t.Error("unknown guest found")
	}
	if h, ok := HostWorkloadByName("H2"); !ok || h.ResidentMB != 213 {
		t.Errorf("HostWorkloadByName(H2) = %+v, %v", h, ok)
	}
	if _, ok := HostWorkloadByName("H9"); ok {
		t.Error("unknown workload found")
	}
}

func TestProfileSpawnRunsAtProfileUsage(t *testing.T) {
	m := simos.MustNewMachine(simos.LinuxLabMachine(1))
	h, _ := HostWorkloadByName("H4") // 21.9%
	p := h.Spawn(m, simos.Host, 0)
	m.Run(2 * time.Minute)
	if u := p.Usage(); math.Abs(u-0.219) > 0.03 {
		t.Errorf("H4 isolated usage = %v, want ~0.219", u)
	}
	if m.ResidentMem(simos.Host) != 68*simos.MB {
		t.Errorf("H4 resident = %d MB", m.ResidentMem(simos.Host)/simos.MB)
	}
}

func TestComposeGroup(t *testing.T) {
	r := rng(8)
	for _, tc := range []struct {
		lh float64
		m  int
	}{
		{0.1, 1}, {0.5, 1}, {1.0, 1},
		{0.3, 2}, {0.8, 3}, {1.0, 5}, {0.4, 5},
	} {
		g, err := ComposeGroup(r, tc.lh, tc.m)
		if err != nil {
			t.Fatalf("ComposeGroup(%v, %d): %v", tc.lh, tc.m, err)
		}
		if len(g.Usages) != tc.m {
			t.Fatalf("got %d members, want %d", len(g.Usages), tc.m)
		}
		sum := 0.0
		for _, u := range g.Usages {
			sum += u
		}
		if math.Abs(sum-tc.lh) > 1e-9 {
			t.Errorf("ComposeGroup(%v, %d) sums to %v", tc.lh, tc.m, sum)
		}
		for _, u := range g.Usages {
			if u < minMemberUsage-1e-9 || u > 1+1e-9 {
				t.Errorf("member usage %v out of range", u)
			}
		}
	}
}

func TestComposeGroupInfeasible(t *testing.T) {
	r := rng(9)
	if _, err := ComposeGroup(r, 0.1, 5); err == nil {
		t.Error("LH too small for 5 members accepted")
	}
	if _, err := ComposeGroup(r, 2.5, 2); err == nil {
		t.Error("LH above member capacity accepted")
	}
	if _, err := ComposeGroup(r, 0.5, 0); err == nil {
		t.Error("zero members accepted")
	}
}

func TestComposeGroupRandomized(t *testing.T) {
	r := rng(10)
	a, _ := ComposeGroup(r, 0.8, 3)
	b, _ := ComposeGroup(r, 0.8, 3)
	same := true
	for i := range a.Usages {
		if math.Abs(a.Usages[i]-b.Usages[i]) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Error("consecutive compositions identical; combinations should vary")
	}
}

func TestHostGroupSpawn(t *testing.T) {
	m := simos.MustNewMachine(simos.LinuxLabMachine(2))
	g := HostGroup{Usages: []float64{0.2, 0.3}}
	procs := g.Spawn(m, DefaultPeriod)
	if len(procs) != 2 {
		t.Fatalf("spawned %d", len(procs))
	}
	m.Run(2 * time.Minute)
	total := 0.0
	for _, p := range procs {
		total += p.Usage()
	}
	// Members contend with each other, so the group's measured usage runs a
	// little below the sum of isolated usages — the paper calibrates LH by
	// measuring the group running together for exactly this reason.
	if total < 0.40 || total > 0.53 {
		t.Errorf("group usage together = %v, want ~0.5 minus self-contention", total)
	}
}
