package testbed

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Machines = -1 },
		func(c *Config) { c.Days = -1 },
		func(c *Config) { c.RAM = 10; c.KernelMem = 20 },
		func(c *Config) { c.Workload.SpikeLoad = [2]float64{0.9, 0.1} },
		func(c *Config) { c.Workload.RebootShare = 1.5 },
		func(c *Config) { c.Monitor.Period = -time.Second },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestStratifiedTimes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var weights [24]float64
	weights[10] = 1 // all mass in hour 10
	times := stratifiedTimes(r, 5, weights, 2*sim.Day)
	if len(times) != 5 {
		t.Fatalf("got %d times", len(times))
	}
	for i, at := range times {
		if at < 2*sim.Day+10*time.Hour || at >= 2*sim.Day+11*time.Hour {
			t.Errorf("time %d = %v outside hour 10", i, at)
		}
		if i > 0 && at < times[i-1] {
			t.Error("times must be sorted")
		}
	}
	if got := stratifiedTimes(r, 0, weights, 0); got != nil {
		t.Errorf("zero count should return nil, got %v", got)
	}
	// Degenerate all-zero profile falls back to uniform placement.
	var zero [24]float64
	times = stratifiedTimes(r, 10, zero, 0)
	if len(times) != 10 {
		t.Fatalf("degenerate profile: got %d times", len(times))
	}
	for _, at := range times {
		if at < 0 || at >= sim.Day {
			t.Errorf("degenerate time %v outside day", at)
		}
	}
}

func TestLowVarCount(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if lowVarCount(r, 0) != 0 || lowVarCount(r, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
	sum := 0
	for i := 0; i < 10000; i++ {
		n := lowVarCount(r, 2.3)
		if n != 2 && n != 3 {
			t.Fatalf("lowVarCount(2.3) = %d, want 2 or 3", n)
		}
		sum += n
	}
	mean := float64(sum) / 10000
	if mean < 2.25 || mean > 2.35 {
		t.Errorf("mean = %v, want ~2.3", mean)
	}
}

func TestPlanMachineDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 7
	r1 := sim.NewSource(9).Stream("plan")
	r2 := sim.NewSource(9).Stream("plan")
	c1, o1 := planMachine(cfg, r1)
	c2, o2 := planMachine(cfg, r2)
	if len(c1) != len(c2) || len(o1) != len(o2) {
		t.Fatal("plans differ in size for identical streams")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("plans differ for identical streams")
		}
	}
}

func TestPlanMachineHasDailyUpdatedb(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 10
	r := sim.NewSource(3).Stream("plan")
	contribs, _ := planMachine(cfg, r)
	for day := 0; day < cfg.Days; day++ {
		found := false
		want := sim.Time(day)*sim.Day + cfg.Workload.UpdatedbStart
		for _, c := range contribs {
			if c.start >= want && c.start < want+2*time.Minute && c.cpu > 0.8 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("day %d: no updatedb spike", day)
		}
	}
}

func TestAmbientStaysBelowTh2(t *testing.T) {
	cfg := DefaultConfig()
	a := newAmbient(cfg, sim.NewSource(4).Stream("ambient"))
	for i := 0; i < 100000; i++ {
		load, mem := a.step(sim.Time(i) * 15 * time.Second)
		if load < 0 || load > 0.5 {
			t.Fatalf("ambient load %v outside [0, 0.5]", load)
		}
		if mem <= 0 {
			t.Fatalf("ambient memory %d", mem)
		}
	}
}

func TestRunSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 7
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if tr.Machines != 3 || tr.Span.End != 7*sim.Day {
		t.Errorf("trace metadata: %d machines span %v", tr.Machines, tr.Span)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events generated")
	}
	// Every machine should see events (updatedb alone guarantees some).
	var counts [3]int
	for _, e := range tr.Events {
		counts[e.Machine]++
	}
	for m, n := range counts {
		if n < 7 {
			t.Errorf("machine %d has only %d events over a week", m, n)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 2
	cfg.Days = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical runs", i)
		}
	}
}

// fullTrace memoizes the full 20x92 run shared by the calibration tests.
var (
	fullOnce sync.Once
	fullTr   *trace.Trace
	fullErr  error
)

func fullTestbedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	fullOnce.Do(func() {
		fullTr, fullErr = Run(DefaultConfig())
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	return fullTr
}

// TestTable2Calibration checks the per-machine unavailability statistics
// against the paper's Table 2 bands (with modest tolerance: the generator
// is stochastic and the paper's own ranges come from a single 3-month
// sample).
func TestTable2Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1840 machine-day simulation")
	}
	tr := fullTestbedTrace(t)
	if md := tr.MachineDays(); md != 1840 {
		t.Errorf("machine days = %v, want 1840 (~ paper's 1800)", md)
	}
	tb := tr.MakeTable2()

	// Paper: total 405-453 per machine.
	if tb.Total.Min < 370 || tb.Total.Max > 510 {
		t.Errorf("total range %d-%d, paper 405-453", tb.Total.Min, tb.Total.Max)
	}
	// Paper: CPU contention 283-356 (69-79%).
	if tb.CPU.Min < 260 || tb.CPU.Max > 390 {
		t.Errorf("CPU range %d-%d, paper 283-356", tb.CPU.Min, tb.CPU.Max)
	}
	if tb.CPUPct[0] < 0.64 || tb.CPUPct[1] > 0.84 {
		t.Errorf("CPU%% %v, paper 69-79%%", tb.CPUPct)
	}
	// Paper: memory contention 83-121 (19-30%).
	if tb.Memory.Min < 70 || tb.Memory.Max > 135 {
		t.Errorf("memory range %d-%d, paper 83-121", tb.Memory.Min, tb.Memory.Max)
	}
	if tb.MemoryPct[0] < 0.14 || tb.MemoryPct[1] > 0.33 {
		t.Errorf("memory%% %v, paper 19-30%%", tb.MemoryPct)
	}
	// Paper: URR 3-12 (0-3%), ~90% reboots.
	if tb.URR.Min < 0 || tb.URR.Max > 16 {
		t.Errorf("URR range %d-%d, paper 3-12", tb.URR.Min, tb.URR.Max)
	}
	if tb.URRPct[1] > 0.05 {
		t.Errorf("URR%% %v, paper 0-3%%", tb.URRPct)
	}
	if tb.RebootShare < 0.75 || tb.RebootShare > 1 {
		t.Errorf("reboot share %v, paper ~0.9", tb.RebootShare)
	}
}

// TestFigure6Calibration checks the availability-interval distribution
// shape against the paper's Figure 6 narrative.
func TestFigure6Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	tr := fullTestbedTrace(t)
	wd, we := tr.IntervalECDFs()
	if wd.N() < 1000 || we.N() < 200 {
		t.Fatalf("too few intervals: weekday %d weekend %d", wd.N(), we.N())
	}
	// Weekday intervals are shorter than weekend intervals.
	if !(wd.Mean() < we.Mean()) {
		t.Errorf("weekday mean %vh should be below weekend %vh", wd.Mean(), we.Mean())
	}
	// Paper: weekday average close to 3 hours, weekend above 5 hours.
	// (The paper's Fig. 6 and Table 2 are mutually inconsistent — 4.7
	// events/day cannot give 3 h mean gaps — so we accept the Table 2
	// -consistent side of the band.)
	if wd.Mean() < 2.0 || wd.Mean() > 5.5 {
		t.Errorf("weekday mean interval = %vh, want roughly 3-5h", wd.Mean())
	}
	if we.Mean() < 4.5 || we.Mean() > 8.5 {
		t.Errorf("weekend mean interval = %vh, want > 5h", we.Mean())
	}
	// Paper: ~5% of intervals shorter than 5 minutes.
	small := wd.At(5.0 / 60)
	if small < 0.02 || small > 0.10 {
		t.Errorf("weekday sub-5-minute fraction = %v, paper ~5%%", small)
	}
	// The 2-4h band is the weekday mode among hour-scale bands.
	m24 := wd.MassBetween(2, 4)
	if m24 < wd.MassBetween(4, 6) || m24 < wd.MassBetween(6, 8) {
		t.Errorf("2-4h (%v) should dominate longer weekday bands (4-6h %v, 6-8h %v)",
			m24, wd.MassBetween(4, 6), wd.MassBetween(6, 8))
	}
	// Weekend mass sits in the 4-6h band at least as strongly as 2-4h.
	if we.MassBetween(4, 8) < we.MassBetween(2, 4) {
		t.Errorf("weekend long bands (%v) should outweigh 2-4h (%v)",
			we.MassBetween(4, 8), we.MassBetween(2, 4))
	}
}

// TestFigure7Calibration checks the hourly occurrence profile.
func TestFigure7Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	tr := fullTestbedTrace(t)
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		sums := tr.HourlyOccurrences(dt)
		// The 4-5 AM updatedb spike equals the machine count on both day
		// types (paper: "equal to the total number of machines (20)").
		if sums[4].Mean < 19.5 || sums[4].Mean > 22 {
			t.Errorf("%v hour-5 spike = %v, want ~20", dt, sums[4].Mean)
		}
		// Daytime hours see far more failures than the small hours.
		day := (sums[11].Mean + sums[14].Mean + sums[16].Mean) / 3
		night := (sums[1].Mean + sums[2].Mean + sums[6].Mean) / 3
		if !(day > 2*night) {
			t.Errorf("%v: day mean %v should dwarf night mean %v", dt, day, night)
		}
	}
	// Weekdays are busier than weekends in the working hours.
	wd := tr.HourlyOccurrences(sim.Weekday)
	we := tr.HourlyOccurrences(sim.Weekend)
	wdDay := (wd[10].Mean + wd[12].Mean + wd[15].Mean + wd[17].Mean) / 4
	weDay := (we[10].Mean + we[12].Mean + we[15].Mean + we[17].Mean) / 4
	if !(wdDay > weDay) {
		t.Errorf("weekday daytime mean %v should exceed weekend %v", wdDay, weDay)
	}
	// Ranges are reported per hour and are never inverted.
	for h, s := range wd {
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Errorf("hour %d: inverted summary %+v", h, s)
		}
	}
}

// TestTransientSpikesDoNotCountAsUnavailability verifies the 1-minute
// suspension rule end to end: with short spikes only, no S3 events appear.
func TestTransientSpikesDoNotCountAsUnavailability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 2
	cfg.Days = 5
	// Disable everything except short spikes and ambient load.
	cfg.Workload.BusyEpisodesWeekday = 0
	cfg.Workload.BusyEpisodesWeekend = 0
	cfg.Workload.MemHogsWeekday = 0
	cfg.Workload.MemHogsWeekend = 0
	cfg.Workload.URRPerDay = 0
	cfg.Workload.UpdatedbLoad = 0 // neutralize the cron spike
	cfg.Workload.ShortSpikesPerDay = 20
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.State == availability.S3 {
			t.Errorf("short spike produced S3 event %+v", e)
		}
	}
}

// TestEventCausesMatchGenerators runs single-mechanism testbeds and checks
// the detector attributes events to the right failure state.
func TestEventCausesMatchGenerators(t *testing.T) {
	base := DefaultConfig()
	base.Machines = 2
	base.Days = 5
	base.Workload.ShortSpikesPerDay = 0

	t.Run("memory-only", func(t *testing.T) {
		cfg := base
		cfg.Workload.BusyEpisodesWeekday = 0
		cfg.Workload.BusyEpisodesWeekend = 0
		cfg.Workload.URRPerDay = 0
		cfg.Workload.UpdatedbLoad = 0
		cfg.Workload.MemHogsWeekday = 2
		cfg.Workload.MemHogsWeekend = 2
		tr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) == 0 {
			t.Fatal("no events")
		}
		for _, e := range tr.Events {
			if e.State != availability.S4 {
				t.Errorf("memory-only testbed produced %v event", e.State)
			}
		}
	})

	t.Run("urr-only", func(t *testing.T) {
		cfg := base
		cfg.Workload.BusyEpisodesWeekday = 0
		cfg.Workload.BusyEpisodesWeekend = 0
		cfg.Workload.MemHogsWeekday = 0
		cfg.Workload.MemHogsWeekend = 0
		cfg.Workload.UpdatedbLoad = 0
		cfg.Workload.URRPerDay = 2
		tr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) == 0 {
			t.Fatal("no events")
		}
		for _, e := range tr.Events {
			if e.State != availability.S5 {
				t.Errorf("URR-only testbed produced %v event", e.State)
			}
		}
	})
}
