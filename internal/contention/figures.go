package contention

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/availability"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/simos"
	"repro/internal/workload"
)

// Figure1Result holds the data of paper Figure 1 (a or b): reduction rate
// of host CPU usage versus the group's isolated load, per group size.
type Figure1Result struct {
	GuestNice int
	// LHGrid are the nominal target loads (x axis).
	LHGrid []float64
	// Sizes are the host group sizes (one curve each).
	Sizes []int
	// MeasuredLH[s][l] is the calibrated group load for Sizes[s] at
	// LHGrid[l] (NaN when the point is infeasible, e.g. LH 0.1 with 5
	// members).
	MeasuredLH [][]float64
	// Reduction[s][l] is the averaged reduction rate (NaN when
	// infeasible).
	Reduction [][]float64
	// Slowdown is the noticeable-slowdown bound used for thresholds.
	Slowdown float64
}

// DefaultLHGrid is the paper's x axis: 10% to 100%.
func DefaultLHGrid() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// DefaultSizes are the paper's host group sizes M = 1..5.
func DefaultSizes() []int { return []int{1, 2, 3, 4, 5} }

// RunFigure1 reproduces Figure 1(a) (guestNice 0) or 1(b) (guestNice 19).
func RunFigure1(opt Options, guestNice int) (*Figure1Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	grid := DefaultLHGrid()
	sizes := DefaultSizes()
	res := &Figure1Result{
		GuestNice: guestNice,
		LHGrid:    grid,
		Sizes:     sizes,
		Slowdown:  opt.Slowdown,
	}
	res.MeasuredLH = make([][]float64, len(sizes))
	res.Reduction = make([][]float64, len(sizes))
	for s := range sizes {
		res.MeasuredLH[s] = make([]float64, len(grid))
		res.Reduction[s] = make([]float64, len(grid))
	}

	type point struct{ s, l int }
	var pts []point
	for s := range sizes {
		for l := range grid {
			pts = append(pts, point{s, l})
		}
	}
	par.For(len(pts), 0, func(_ *struct{}, i int) error {
		p := pts[i]
		lh, red, n := opt.averagePoint(grid[p.l], sizes[p.s], guestNice)
		if n == 0 {
			lh, red = math.NaN(), math.NaN()
		}
		res.MeasuredLH[p.s][p.l] = lh
		res.Reduction[p.s][p.l] = red
		return nil
	})
	return res, nil
}

// averagePoint measures one (LH, M) point over the configured combos,
// returning averaged calibrated LH and reduction plus the combo count
// (0 when the point is infeasible).
func (o Options) averagePoint(lh float64, m, guestNice int) (avgLH, avgRed float64, n int) {
	src := sim.NewSource(o.Seed)
	rng := src.Stream(fmt.Sprintf("compose/%v/%d/%d", lh, m, guestNice))
	for c := 0; c < o.Combos; c++ {
		group, err := workload.ComposeGroup(rng, lh, m)
		if err != nil {
			return 0, 0, 0 // infeasible point
		}
		seed := comboSeed(o.Seed, int(lh*1000), m, guestNice, c)
		gotLH, red, err := o.MeasureGroupReduction(seed, group, guestNice)
		if err != nil {
			continue
		}
		avgLH += gotLH
		avgRed += red
		n++
	}
	if n > 0 {
		avgLH /= float64(n)
		avgRed /= float64(n)
	}
	return avgLH, avgRed, n
}

// Threshold extracts the figure's threshold: the lowest LH above which the
// reduction exceeds the slowdown bound for at least one group size. The
// crossing is interpolated linearly between grid points, matching how the
// paper reads Th1/Th2 off the curves.
func (r *Figure1Result) Threshold() (float64, bool) {
	best := math.Inf(1)
	found := false
	for s := range r.Sizes {
		for l := 0; l < len(r.LHGrid); l++ {
			cur := r.Reduction[s][l]
			if math.IsNaN(cur) || cur <= r.Slowdown {
				continue
			}
			// First grid point of this curve above the bound.
			cross := r.LHGrid[l]
			if l > 0 && !math.IsNaN(r.Reduction[s][l-1]) {
				prev := r.Reduction[s][l-1]
				if prev <= r.Slowdown && cur > prev {
					frac := (r.Slowdown - prev) / (cur - prev)
					cross = r.LHGrid[l-1] + frac*(r.LHGrid[l]-r.LHGrid[l-1])
				}
			}
			if cross < best {
				best = cross
				found = true
			}
			break
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// Format renders the figure as an aligned text table (one row per LH, one
// column per group size).
func (r *Figure1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — reduction rate of host CPU usage (guest nice %d)\n", r.GuestNice)
	fmt.Fprintf(&b, "%6s", "LH")
	for _, m := range r.Sizes {
		fmt.Fprintf(&b, "  M=%d    ", m)
	}
	b.WriteString("\n")
	for l, lh := range r.LHGrid {
		fmt.Fprintf(&b, "%5.0f%%", lh*100)
		for s := range r.Sizes {
			v := r.Reduction[s][l]
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "  %-7s", "-")
			} else {
				fmt.Fprintf(&b, "  %5.1f%% ", v*100)
			}
		}
		b.WriteString("\n")
	}
	if th, ok := r.Threshold(); ok {
		fmt.Fprintf(&b, "threshold (lowest LH with slowdown > %.0f%%): %.0f%%\n", r.Slowdown*100, th*100)
	}
	return b.String()
}

// FindThresholds runs Figures 1(a) and 1(b) and derives (Th1, Th2) — the
// full Section 3.2.1 calibration.
func FindThresholds(opt Options) (availability.Thresholds, *Figure1Result, *Figure1Result, error) {
	a, err := RunFigure1(opt, 0)
	if err != nil {
		return availability.Thresholds{}, nil, nil, err
	}
	b, err := RunFigure1(opt, availability.LowestNice)
	if err != nil {
		return availability.Thresholds{}, nil, nil, err
	}
	th := availability.Thresholds{Slowdown: opt.withDefaults().Slowdown}
	if v, ok := a.Threshold(); ok {
		th.Th1 = v
	}
	if v, ok := b.Threshold(); ok {
		th.Th2 = v
	}
	if th.Th2 < th.Th1 {
		th.Th2 = th.Th1
	}
	return th, a, b, nil
}

// Figure2Result holds paper Figure 2: host slowdown for a single host
// process versus (LH, guest nice level).
type Figure2Result struct {
	LHGrid []float64
	Nices  []int
	// Reduction[n][l] for Nices[n] and LHGrid[l].
	Reduction [][]float64
}

// RunFigure2 reproduces Figure 2: the priority sweep showing that
// intermediate guest priorities between 0 and 19 buy no additional host
// protection between Th1 and Th2.
func RunFigure2(opt Options) (*Figure2Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	grid := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	nices := []int{0, 2, 5, 8, 11, 14, 17, 19}
	res := &Figure2Result{LHGrid: grid, Nices: nices}
	res.Reduction = make([][]float64, len(nices))
	for n := range nices {
		res.Reduction[n] = make([]float64, len(grid))
	}
	type point struct{ n, l int }
	var pts []point
	for n := range nices {
		for l := range grid {
			pts = append(pts, point{n, l})
		}
	}
	par.For(len(pts), 0, func(_ *struct{}, i int) error {
		p := pts[i]
		group := workload.HostGroup{Usages: []float64{grid[p.l]}}
		seed := comboSeed(opt.Seed, 2, p.n, p.l)
		_, red, err := opt.MeasureGroupReduction(seed, group, nices[p.n])
		if err != nil {
			red = math.NaN()
		}
		res.Reduction[p.n][p.l] = red
		return nil
	})
	return res, nil
}

// Format renders the priority sweep.
func (r *Figure2Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 2 — host slowdown vs (LH, guest priority)\n")
	fmt.Fprintf(&b, "%6s", "LH")
	for _, n := range r.Nices {
		fmt.Fprintf(&b, "  n=%-4d", n)
	}
	b.WriteString("\n")
	for l, lh := range r.LHGrid {
		fmt.Fprintf(&b, "%5.0f%%", lh*100)
		for n := range r.Nices {
			fmt.Fprintf(&b, "  %5.1f%%", r.Reduction[n][l]*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure3Row is one x-axis group of paper Figure 3: a host/guest isolated
// usage pair with the guest's achieved usage at both priorities.
type Figure3Row struct {
	HostUsage       float64
	GuestIsolated   float64
	GuestEqualPrio  float64
	GuestLowestPrio float64
}

// Figure3Result holds the paper's Figure 3 comparison.
type Figure3Result struct {
	Rows []Figure3Row
}

// RunFigure3 reproduces Figure 3: guest CPU usage with equal vs lowest
// priority under light host load, quantifying how much CPU an
// always-lowest-priority policy costs the guest.
func RunFigure3(opt Options) (*Figure3Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	type combo struct{ host, guest float64 }
	combos := []combo{
		{0.2, 1.0}, {0.2, 0.9}, {0.2, 0.8}, {0.2, 0.7},
		{0.1, 1.0}, {0.1, 0.9}, {0.1, 0.8}, {0.1, 0.7},
	}
	res := &Figure3Result{Rows: make([]Figure3Row, len(combos))}
	// The 1-2% priority effect is small, so average several independent
	// repetitions per combo and decorrelate the guest's duty cycle from
	// the host's (different period plus jitter) to avoid phase locking.
	reps := opt.Combos * 3
	par.For(len(combos), 0, func(_ *struct{}, i int) error {
		c := combos[i]
		row := Figure3Row{HostUsage: c.host, GuestIsolated: c.guest}
		spawn := func(m *simos.Machine) {
			m.Spawn("host", simos.Host, 0, workload.SyntheticRSS,
				&workload.DutyCycle{Usage: c.host, Period: opt.Period, Jitter: 0.15})
		}
		for _, nice := range []int{0, availability.LowestNice} {
			sum, n := 0.0, 0
			for rep := 0; rep < reps; rep++ {
				g := &guestSpec{
					name: "guest",
					nice: nice,
					rss:  workload.SyntheticRSS,
					behavior: func() simos.Behavior {
						return &workload.DutyCycle{Usage: c.guest, Period: opt.Period * 7 / 10, Jitter: 0.2}
					},
				}
				seed := comboSeed(opt.Seed, 3, i, nice, rep)
				out, err := opt.measure(seed, spawn, g)
				if err != nil {
					continue
				}
				sum += out.GuestUsage
				n++
			}
			if n == 0 {
				continue
			}
			avg := sum / float64(n)
			if nice == 0 {
				row.GuestEqualPrio = avg
			} else {
				row.GuestLowestPrio = avg
			}
		}
		res.Rows[i] = row
		return nil
	})
	return res, nil
}

// Format renders Figure 3.
func (r *Figure3Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 3 — guest CPU usage, equal vs lowest priority\n")
	fmt.Fprintf(&b, "%-10s %-8s %-12s %-12s %-8s\n", "host+guest", "isolated", "equal-prio", "nice-19", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%.1f+%-6.1f %-8.2f %-12.3f %-12.3f %+.3f\n",
			row.HostUsage, row.GuestIsolated, row.GuestIsolated,
			row.GuestEqualPrio, row.GuestLowestPrio,
			row.GuestEqualPrio-row.GuestLowestPrio)
	}
	return b.String()
}

// MeanPriorityGain returns the average extra guest CPU usage at equal
// priority versus nice 19 (the paper reports about 2%).
func (r *Figure3Result) MeanPriorityGain() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.GuestEqualPrio - row.GuestLowestPrio
	}
	return sum / float64(len(r.Rows))
}
