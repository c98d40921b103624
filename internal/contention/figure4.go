package contention

import (
	"fmt"
	"strings"

	"repro/internal/availability"
	"repro/internal/par"
	"repro/internal/simos"
	"repro/internal/workload"
)

// Figure4Cell is one bar of paper Figure 4: a (guest app, host workload,
// guest priority) combination.
type Figure4Cell struct {
	Guest string
	Host  string
	Nice  int
	// Reduction is the host CPU usage reduction rate.
	Reduction float64
	// Thrashed marks the starred bars: the working sets exceeded physical
	// memory and the machine thrashed.
	Thrashed bool
}

// Figure4Result holds the full CPU+memory contention experiment of
// Section 3.2.3: SPEC-like guests against Musbus-like host workloads on
// the 384 MB Solaris machine.
type Figure4Result struct {
	Guests []string
	Hosts  []string
	// Cells indexed [nice][guest][host]; Nices[k] gives the priority of
	// plane k.
	Nices []int
	Cells [][][]Figure4Cell
}

// RunFigure4 reproduces Figure 4 (a: guest priority 0, b: priority 19).
// The machine defaults to the paper's 384 MB Solaris box unless the
// options specify otherwise.
func RunFigure4(opt Options) (*Figure4Result, error) {
	opt = opt.withDefaults()
	// Figure 4 ran on the small-memory machine; honor an explicit override
	// but default to it.
	if opt.Machine.Name == "linux-lab" {
		opt.Machine = simos.SolarisMachine(opt.Seed).WithDefaults()
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}

	guests := workload.SPECGuests()
	hosts := workload.MusbusWorkloads()
	nices := []int{0, availability.LowestNice}

	res := &Figure4Result{Nices: nices}
	for _, g := range guests {
		res.Guests = append(res.Guests, g.Name)
	}
	for _, h := range hosts {
		res.Hosts = append(res.Hosts, h.Name)
	}
	res.Cells = make([][][]Figure4Cell, len(nices))
	for k := range nices {
		res.Cells[k] = make([][]Figure4Cell, len(guests))
		for g := range guests {
			res.Cells[k][g] = make([]Figure4Cell, len(hosts))
		}
	}

	// Calibrate each host workload alone once.
	aloneUsage := make([]float64, len(hosts))
	par.For(len(hosts), 0, func(_ *struct{}, h int) error {
		host := hosts[h]
		spawn := func(m *simos.Machine) { host.Spawn(m, simos.Host, 0) }
		if out, err := opt.measure(comboSeed(opt.Seed, 4, h), spawn, nil); err == nil {
			aloneUsage[h] = out.HostUsage
		}
		return nil
	})

	type point struct{ k, g, h int }
	var pts []point
	for k := range nices {
		for g := range guests {
			for h := range hosts {
				pts = append(pts, point{k, g, h})
			}
		}
	}
	par.For(len(pts), 0, func(_ *struct{}, i int) error {
		p := pts[i]
		guest := guests[p.g]
		host := hosts[p.h]
		spawn := func(m *simos.Machine) { host.Spawn(m, simos.Host, 0) }
		gs := &guestSpec{
			name: guest.Name,
			nice: nices[p.k],
			rss:  guest.RSS(),
			behavior: func() simos.Behavior {
				return &workload.DutyCycle{Usage: guest.CPUUsage, Period: opt.Period}
			},
		}
		out, err := opt.measure(comboSeed(opt.Seed, 4, p.k, p.g, p.h), spawn, gs)
		cell := Figure4Cell{Guest: guest.Name, Host: host.Name, Nice: nices[p.k]}
		if err == nil {
			cell.Reduction = Reduction(aloneUsage[p.h], out.HostUsage)
			cell.Thrashed = out.Thrashed
		}
		res.Cells[p.k][p.g][p.h] = cell
		return nil
	})
	return res, nil
}

// Format renders both planes of Figure 4; thrashing cells are starred as
// in the paper.
func (r *Figure4Result) Format() string {
	var b strings.Builder
	for k, nice := range r.Nices {
		fmt.Fprintf(&b, "Figure 4(%c) — host slowdown, guest priority %d\n", 'a'+k, nice)
		fmt.Fprintf(&b, "%-8s", "guest")
		for _, h := range r.Hosts {
			fmt.Fprintf(&b, "  %-8s", h)
		}
		b.WriteString("\n")
		for g, gn := range r.Guests {
			fmt.Fprintf(&b, "%-8s", gn)
			for h := range r.Hosts {
				c := r.Cells[k][g][h]
				star := " "
				if c.Thrashed {
					star = "*"
				}
				fmt.Fprintf(&b, "  %5.1f%%%s ", c.Reduction*100, star)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Table1 renders the paper's Table 1 from the built-in profiles.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1 — resource usage of tested applications\n")
	for _, p := range workload.SPECGuests() {
		fmt.Fprintf(&b, "%s\n", p)
	}
	for _, p := range workload.MusbusWorkloads() {
		fmt.Fprintf(&b, "%s\n", p)
	}
	return b.String()
}
