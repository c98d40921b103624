package contention

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simos"
	"repro/internal/workload"
)

// ThrashingPredicted reports whether the paper's working-set rule predicts
// thrashing for a guest/host pair on the given machine: guest RSS + host
// RSS + kernel memory exceeding physical memory.
func ThrashingPredicted(machine simos.MachineConfig, guest, host workload.AppProfile) bool {
	machine = machineWithDefaults(machine)
	return guest.RSS()+host.RSS()+machine.KernelMem > machine.RAM
}

func machineWithDefaults(m simos.MachineConfig) simos.MachineConfig {
	if m.RAM == 0 {
		m = simos.SolarisMachine(0)
	}
	return m
}

// fastOptions trades a little precision for test speed.
func fastOptions() Options {
	opt := DefaultOptions()
	opt.Measure = 150 * time.Second
	opt.Combos = 2
	return opt
}

func TestReduction(t *testing.T) {
	tests := []struct {
		alone, together, want float64
	}{
		{0.5, 0.45, 0.1},
		{0.5, 0.5, 0},
		{0.5, 0.55, 0}, // clamped: guest cannot speed the host up
		{0, 0.1, 0},    // degenerate calibration
	}
	for _, tt := range tests {
		if got := Reduction(tt.alone, tt.together); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Reduction(%v, %v) = %v, want %v", tt.alone, tt.together, got, tt.want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Measure: -time.Second},
		{Measure: time.Second, Warmup: -time.Second},
		{Measure: time.Second, Combos: -1},
	}
	for i, o := range bad {
		o.Machine = simos.LinuxLabMachine(0).WithDefaults()
		if o.Combos == 0 {
			o.Combos = 1
		}
		if o.Slowdown == 0 {
			o.Slowdown = 0.05
		}
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

func TestMeasureGroupReduction(t *testing.T) {
	opt := fastOptions()
	group := workload.HostGroup{Usages: []float64{0.8}}
	lh, red, err := opt.MeasureGroupReduction(7, group, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lh < 0.7 || lh > 0.85 {
		t.Errorf("calibrated LH = %v, want ~0.8", lh)
	}
	// A CPU-bound equal-priority guest must hurt a heavy host noticeably.
	if red < 0.1 {
		t.Errorf("reduction = %v, want > 0.1 at LH 0.8", red)
	}
}

// TestThresholdCalibration is the headline calibration check: the harness
// must land Th1 and Th2 near the paper's Linux values (20% / 60%).
func TestThresholdCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run takes a few seconds")
	}
	opt := fastOptions()
	opt.Measure = 240 * time.Second
	th, figA, figB, err := FindThresholds(opt)
	if err != nil {
		t.Fatal(err)
	}
	if th.Th1 < 0.12 || th.Th1 > 0.32 {
		t.Errorf("Th1 = %v, want ~0.20 (paper)\n%s", th.Th1, figA.Format())
	}
	if th.Th2 < 0.45 || th.Th2 > 0.72 {
		t.Errorf("Th2 = %v, want ~0.60 (paper)\n%s", th.Th2, figB.Format())
	}
	if th.Th1 >= th.Th2 {
		t.Errorf("Th1 (%v) must be below Th2 (%v)", th.Th1, th.Th2)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := fastOptions()
	res, err := RunFigure1(opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Infeasible points (LH 0.1 with 3+ members) are NaN.
	if !math.IsNaN(res.Reduction[2][0]) {
		t.Error("LH=0.1 M=3 should be infeasible")
	}
	// The M=1 curve rises with LH: compare ends.
	lo := res.Reduction[0][1] // LH 0.2
	hi := res.Reduction[0][9] // LH 1.0
	if !(hi > lo+0.2) {
		t.Errorf("M=1 curve should rise strongly: red(0.2)=%v red(1.0)=%v", lo, hi)
	}
	// Reduction decreases with group size at heavy load (paper: curves
	// converge as M grows).
	if !(res.Reduction[0][9] > res.Reduction[3][9]) {
		t.Errorf("reduction should fall with M at LH=1.0: M=1 %v, M=4 %v",
			res.Reduction[0][9], res.Reduction[3][9])
	}
	// Calibrated LH tracks the nominal grid within self-contention loss.
	for s := range res.Sizes {
		for l, nominal := range res.LHGrid {
			got := res.MeasuredLH[s][l]
			if math.IsNaN(got) {
				continue
			}
			if got > nominal+0.07 || got < nominal*0.7-0.03 {
				t.Errorf("M=%d LH=%v: calibrated %v too far off", res.Sizes[s], nominal, got)
			}
		}
	}
	if !strings.Contains(res.Format(), "Figure 1") {
		t.Error("Format missing title")
	}
}

func TestFigure2PrioritySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := fastOptions()
	res, err := RunFigure2(opt)
	if err != nil {
		t.Fatal(err)
	}
	// At heavy host load the lowest priority must protect the host much
	// better than the default priority (the reason Th1 exists)...
	heavy := len(res.LHGrid) - 2 // LH 0.9
	n0, n19 := res.Reduction[0][heavy], res.Reduction[len(res.Nices)-1][heavy]
	if !(n19 < n0*0.5) {
		t.Errorf("nice 19 should protect host at heavy load: nice0 %v nice19 %v", n0, n19)
	}
	// ...and intermediate priorities between Th1 and Th2 are not enough to
	// keep the slowdown acceptable, so gradual renicing buys nothing
	// (Section 3.2.2's conclusion).
	mid := 2 // LH 0.4
	for n, nice := range res.Nices {
		if nice == 0 || nice >= 17 {
			continue
		}
		if res.Reduction[n][mid] <= opt.Slowdown {
			// Tolerate one near-threshold value but flag systematic
			// protection from a mid nice.
			if res.Reduction[n][mid] < opt.Slowdown*0.5 {
				t.Errorf("nice %d already protects at LH=0.4 (red %v); gradual renice should not suffice",
					nice, res.Reduction[n][mid])
			}
		}
	}
	if !strings.Contains(res.Format(), "Figure 2") {
		t.Error("Format missing title")
	}
}

func TestFigure3PriorityGain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := fastOptions()
	res, err := RunFigure3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(res.Rows))
	}
	gain := res.MeanPriorityGain()
	// The paper reports ~2% more guest CPU at equal priority; accept a
	// band around it but insist the sign is right and the size plausible.
	if gain < 0.003 || gain > 0.06 {
		t.Errorf("mean priority gain = %v, want ~0.02\n%s", gain, res.Format())
	}
	for _, row := range res.Rows {
		if row.GuestEqualPrio == 0 || row.GuestLowestPrio == 0 {
			t.Errorf("row %+v has missing measurements", row)
		}
		// The guest can never exceed its isolated demand.
		if row.GuestEqualPrio > row.GuestIsolated+0.02 {
			t.Errorf("guest usage %v above isolated %v", row.GuestEqualPrio, row.GuestIsolated)
		}
	}
}

func TestFigure4MemoryContention(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opt := fastOptions()
	opt.Measure = 120 * time.Second
	res, err := RunFigure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	solaris := simos.SolarisMachine(0)
	guests := workload.SPECGuests()
	hosts := workload.MusbusWorkloads()
	gi := map[string]int{}
	for i, g := range res.Guests {
		gi[g] = i
	}
	hi := map[string]int{}
	for i, h := range res.Hosts {
		hi[h] = i
	}
	// Thrashing must occur exactly where working sets exceed memory:
	// H2/H5 with apsi, bzip2, mcf — and never with galgel (paper Fig. 4).
	for _, g := range guests {
		for _, h := range hosts {
			want := ThrashingPredicted(solaris, g, h)
			for k := range res.Nices {
				cell := res.Cells[k][gi[g.Name]][hi[h.Name]]
				if cell.Thrashed != want {
					t.Errorf("%s+%s nice %d: thrashed=%v, predicted %v",
						g.Name, h.Name, res.Nices[k], cell.Thrashed, want)
				}
			}
		}
	}
	// Thrashing happens regardless of guest priority (orthogonality):
	// checked above by iterating both planes. Spot-check magnitudes: the
	// thrashing H2+apsi bars show large slowdown at both priorities.
	for k := range res.Nices {
		c := res.Cells[k][gi["apsi"]][hi["H2"]]
		if c.Reduction < 0.10 {
			t.Errorf("thrashing H2+apsi nice %d reduction = %v, want large", res.Nices[k], c.Reduction)
		}
	}
	// Without memory pressure, renicing helps: H6 (66% CPU) + galgel.
	a := res.Cells[0][gi["galgel"]][hi["H6"]]
	b := res.Cells[1][gi["galgel"]][hi["H6"]]
	if !(b.Reduction < a.Reduction) {
		t.Errorf("renice should reduce slowdown for H6+galgel: nice0 %v nice19 %v",
			a.Reduction, b.Reduction)
	}
	// Light host loads see little slowdown when memory fits: H1+galgel.
	if c := res.Cells[1][gi["galgel"]][hi["H1"]]; c.Reduction > opt.Slowdown+0.03 {
		t.Errorf("H1+galgel nice19 reduction = %v, want small", c.Reduction)
	}
	if !strings.Contains(res.Format(), "Figure 4(a)") || !strings.Contains(res.Format(), "*") {
		t.Error("Format should include both planes and thrashing stars")
	}
}

func TestThrashingPredictedRule(t *testing.T) {
	solaris := simos.SolarisMachine(0)
	apsi, _ := workload.GuestByName("apsi")
	galgel, _ := workload.GuestByName("galgel")
	h2, _ := workload.HostWorkloadByName("H2")
	h1, _ := workload.HostWorkloadByName("H1")
	if !ThrashingPredicted(solaris, apsi, h2) {
		t.Error("apsi+H2 must thrash on 384 MB")
	}
	if ThrashingPredicted(solaris, galgel, h2) {
		t.Error("galgel+H2 must fit on 384 MB")
	}
	if ThrashingPredicted(solaris, apsi, h1) {
		t.Error("apsi+H1 must fit on 384 MB")
	}
	// On the paper's >1 GB lab machines, nothing in Table 1 thrashes.
	lab := simos.LinuxLabMachine(0)
	for _, g := range workload.SPECGuests() {
		for _, h := range workload.MusbusWorkloads() {
			if ThrashingPredicted(lab, g, h) {
				t.Errorf("%s+%s should fit on the 1.5 GB lab machine", g.Name, h.Name)
			}
		}
	}
}

func TestThresholdInterpolation(t *testing.T) {
	r := &Figure1Result{
		LHGrid:   []float64{0.2, 0.4},
		Sizes:    []int{1},
		Slowdown: 0.05,
		Reduction: [][]float64{
			{0.03, 0.07},
		},
	}
	th, ok := r.Threshold()
	if !ok {
		t.Fatal("threshold not found")
	}
	// Linear crossing: 0.2 + 0.2*(0.05-0.03)/(0.07-0.03) = 0.3.
	if math.Abs(th-0.3) > 1e-9 {
		t.Errorf("interpolated threshold = %v, want 0.3", th)
	}
	// Curve that never crosses.
	flat := &Figure1Result{
		LHGrid:    []float64{0.2, 0.4},
		Sizes:     []int{1},
		Slowdown:  0.05,
		Reduction: [][]float64{{0.01, 0.02}},
	}
	if _, ok := flat.Threshold(); ok {
		t.Error("flat curve should have no threshold")
	}
	// First point already above the bound.
	high := &Figure1Result{
		LHGrid:    []float64{0.2, 0.4},
		Sizes:     []int{1},
		Slowdown:  0.05,
		Reduction: [][]float64{{0.09, 0.2}},
	}
	if th, ok := high.Threshold(); !ok || th != 0.2 {
		t.Errorf("immediate crossing = %v, %v; want 0.2", th, ok)
	}
}

func TestTable1Format(t *testing.T) {
	s := Table1()
	for _, name := range []string{"apsi", "galgel", "bzip2", "mcf", "H1", "H6"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table 1 missing %s:\n%s", name, s)
		}
	}
}

// TestFiguresSerialEqualsParallel runs Figures 1(a) and 4 at GOMAXPROCS 1
// and 4, each from an empty calibration cache so the cache cannot make the
// runs agree, and requires the results equal bit for bit: how many workers
// sweep the points must not reach a figure. Infeasible Figure 1 cells are
// NaN on both sides.
func TestFiguresSerialEqualsParallel(t *testing.T) {
	defer ResetAloneCache()
	opt := DefaultOptions()
	opt.Measure = 20 * time.Second
	opt.Combos = 2
	run := func(procs int) (*Figure1Result, *Figure4Result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ResetAloneCache()
		f1, err := RunFigure1(opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		ResetAloneCache()
		f4, err := RunFigure4(opt)
		if err != nil {
			t.Fatal(err)
		}
		return f1, f4
	}
	s1, s4 := run(1)
	p1, p4 := run(4)

	nans := 0
	for s := range s1.Sizes {
		for l := range s1.LHGrid {
			for _, v := range [][2]float64{{s1.MeasuredLH[s][l], p1.MeasuredLH[s][l]}, {s1.Reduction[s][l], p1.Reduction[s][l]}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Errorf("Figure 1 M=%d LH=%v: %v at GOMAXPROCS 1, %v at 4", s1.Sizes[s], s1.LHGrid[l], v[0], v[1])
				}
			}
			if math.IsNaN(s1.Reduction[s][l]) {
				nans++
			}
		}
	}
	if nans == 0 {
		t.Error("no infeasible Figure 1 cell: the NaN case went unchecked")
	}
	for k := range s4.Cells {
		for g := range s4.Cells[k] {
			for h, a := range s4.Cells[k][g] {
				b := p4.Cells[k][g][h]
				if math.Float64bits(a.Reduction) != math.Float64bits(b.Reduction) || a.Thrashed != b.Thrashed {
					t.Errorf("Figure 4 %s/%s nice %d: %+v at GOMAXPROCS 1, %+v at 4", a.Guest, a.Host, a.Nice, a, b)
				}
			}
		}
	}
}

func TestComboSeedDistinct(t *testing.T) {
	a := comboSeed(1, 1, 2, 3)
	b := comboSeed(1, 1, 2, 4)
	c := comboSeed(2, 1, 2, 3)
	if a == b || a == c {
		t.Error("combo seeds should differ across coordinates and bases")
	}
	if a != comboSeed(1, 1, 2, 3) {
		t.Error("combo seeds must be deterministic")
	}
}
