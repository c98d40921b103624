package testbed

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
)

// contribution is one additive load component on a machine: CPU load
// and/or resident host memory over [start, end).
type contribution struct {
	start, end sim.Time
	cpu        float64
	mem        int64
}

// outage is a URR interval: the machine is offline in [start, end).
type outage struct {
	start, end sim.Time
}

// stratifiedTimes draws n event times within the day starting at dayStart,
// spread over the quantiles of the hourly weight profile. Stratification —
// one draw per probability-mass slice — gives the quasi-regular spacing a
// lab full of students exhibits (busy episodes arrive steadily through the
// active hours rather than in Poisson clumps), which is what keeps most
// availability intervals in the 2-6 hour band of Figure 6.
func stratifiedTimes(r *rand.Rand, n int, weights [24]float64, dayStart sim.Time) []sim.Time {
	if n <= 0 {
		return nil
	}
	var cdf [25]float64
	for h := 0; h < 24; h++ {
		w := weights[h]
		if w < 0 {
			w = 0
		}
		cdf[h+1] = cdf[h] + w
	}
	total := cdf[24]
	if total <= 0 {
		// Degenerate profile: place uniformly.
		out := make([]sim.Time, n)
		for i := range out {
			out[i] = dayStart + sim.Uniform(r, 0, sim.Day)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		u := (float64(i) + r.Float64()) / float64(n) * total
		// Find the hour whose CDF slice contains u.
		h := sort.SearchFloat64s(cdf[1:], u)
		if h > 23 {
			h = 23
		}
		span := cdf[h+1] - cdf[h]
		frac := 0.5
		if span > 0 {
			frac = (u - cdf[h]) / span
		}
		at := dayStart + sim.Time(h)*time.Hour + sim.Time(frac*float64(time.Hour))
		out = append(out, at)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// placeTimes places n event times in the day: stratified by default, or
// independently sampled from the diurnal profile when poisson is set.
func placeTimes(r *rand.Rand, n int, weights [24]float64, dayStart sim.Time, poisson bool) []sim.Time {
	if !poisson {
		return stratifiedTimes(r, n, weights, dayStart)
	}
	if n <= 0 {
		return nil
	}
	// Independent draws from the hourly profile.
	var cdf [25]float64
	for h := 0; h < 24; h++ {
		w := weights[h]
		if w < 0 {
			w = 0
		}
		cdf[h+1] = cdf[h] + w
	}
	out := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		u := r.Float64() * cdf[24]
		h := sort.SearchFloat64s(cdf[1:], u)
		if h > 23 {
			h = 23
		}
		out = append(out, dayStart+sim.Time(h)*time.Hour+sim.Uniform(r, 0, time.Hour))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// lowVarCount draws a count with mean m but sub-Poisson variance:
// floor(m) plus a Bernoulli trial on the fractional part.
func lowVarCount(r *rand.Rand, m float64) int {
	if m <= 0 {
		return 0
	}
	n := int(m)
	if sim.Bernoulli(r, m-float64(n)) {
		n++
	}
	return n
}

// planMachine generates every load contribution and outage for one machine
// over the whole traced span.
func planMachine(cfg Config, r *rand.Rand) (contribs []contribution, outages []outage) {
	w := cfg.Workload
	cal := sim.Calendar{}

	// Per-machine heterogeneity factor (1.0 when spread is 0).
	mult := 1 + w.MachineRateSpread*(r.Float64()-0.5)

	for day := 0; day < cfg.Days; day++ {
		dayStart := sim.Time(day) * sim.Day
		weekend := cal.DayType(dayStart) == sim.Weekend
		profile := w.DiurnalWeekday
		episodes := w.BusyEpisodesWeekday
		memhogs := w.MemHogsWeekday
		if weekend {
			profile = w.DiurnalWeekend
			episodes = w.BusyEpisodesWeekend
			memhogs = w.MemHogsWeekend
		}

		// The nightly updatedb cron: a long, machine-wide CPU spike.
		udStart := dayStart + w.UpdatedbStart + sim.Uniform(r, 0, 90*time.Second)
		contribs = append(contribs, contribution{
			start: udStart,
			end:   udStart + w.UpdatedbDur,
			cpu:   w.UpdatedbLoad,
		})

		// Busy episodes and memory hogs share one stratified time grid:
		// the lab's failure-inducing activity arrives quasi-regularly
		// through the active hours, which concentrates the availability
		// intervals in the 2-4 hour band of Figure 6. Counts are drawn
		// with low variance (floor + Bernoulli of the fraction) for the
		// same reason.
		var nEpisodes, nHogs int
		if w.PoissonPlacement {
			nEpisodes = sim.Poisson(r, episodes*mult)
			nHogs = sim.Poisson(r, memhogs*mult)
		} else {
			nEpisodes = lowVarCount(r, episodes*mult)
			nHogs = lowVarCount(r, memhogs*mult)
		}
		times := placeTimes(r, nEpisodes+nHogs, profile, dayStart, w.PoissonPlacement)
		// Assign hog slots uniformly among the drawn times.
		isHog := make([]bool, len(times))
		for _, idx := range r.Perm(len(times))[:min(nHogs, len(times))] {
			isHog[idx] = true
		}
		for i, at := range times {
			if isHog[i] {
				// Memory hog: free memory collapses below any guest
				// working set.
				dur := sim.Uniform(r, w.MemHogDur[0], w.MemHogDur[1])
				size := w.MemHogSize[0] + r.Int63n(w.MemHogSize[1]-w.MemHogSize[0]+1)
				contribs = append(contribs, contribution{start: at, end: at + dur, mem: size, cpu: 0.15})
				continue
			}
			// Busy episode: one or more qualifying CPU spikes.
			t := at
			for {
				dur := time.Duration(sim.LogNormal(r, float64(w.SpikeDurMedian), w.SpikeDurSigma))
				if dur < w.SpikeDurMin {
					dur = w.SpikeDurMin
				}
				load := w.SpikeLoad[0] + r.Float64()*(w.SpikeLoad[1]-w.SpikeLoad[0])
				contribs = append(contribs, contribution{start: t, end: t + dur, cpu: load})
				if !sim.Bernoulli(r, w.ExtraSpikeProb) {
					break
				}
				t += dur + sim.Uniform(r, w.SpikeGap[0], w.SpikeGap[1])
			}
		}

		// Short transient spikes: suspension-only load excursions.
		for _, at := range stratifiedTimes(r, sim.Poisson(r, w.ShortSpikesPerDay), profile, dayStart) {
			dur := sim.Uniform(r, 10*time.Second, 45*time.Second)
			load := 0.7 + r.Float64()*0.25
			contribs = append(contribs, contribution{start: at, end: at + dur, cpu: load})
		}

		// URR: console reboots (short) and hardware/software failures.
		for _, at := range stratifiedTimes(r, sim.Poisson(r, w.URRPerDay), profile, dayStart) {
			var dur time.Duration
			if sim.Bernoulli(r, w.RebootShare) {
				dur = sim.Uniform(r, w.RebootDur[0], w.RebootDur[1])
			} else {
				dur = sim.Uniform(r, w.FailureDur[0], w.FailureDur[1])
			}
			outages = append(outages, outage{start: at, end: at + dur})
		}
	}

	sort.Slice(contribs, func(i, j int) bool { return contribs[i].start < contribs[j].start })
	sort.Slice(outages, func(i, j int) bool { return outages[i].start < outages[j].start })
	return contribs, outages
}

// ambient models the background host load: a diurnal baseline from student
// sessions plus slowly wandering noise, kept safely below Th2 so only
// explicit spikes cause unavailability.
//
// The diurnal component (base + amp*shape) is constant within each hour,
// so it is cached and recomputed only at hour boundaries; per sample only
// the AR(1) noise advances. The cached sum is bit-identical to evaluating
// base + amp*shape + noise afresh, because Go's left-to-right evaluation
// groups the expression the same way.
type ambient struct {
	cfg   Config
	cal   sim.Calendar
	noise float64
	r     *rand.Rand
	// baseMem is the resident memory of everyday host processes.
	baseMem int64

	// level is AmbientBase + AmbientAmp*shape for the hour containing the
	// last refresh; nextRecalc is the first instant it must be recomputed.
	level                  float64
	nextRecalc             sim.Time
	maxWeekday, maxWeekend float64
}

func newAmbient(cfg Config, r *rand.Rand) *ambient {
	return &ambient{
		cfg:        cfg,
		cal:        sim.Calendar{},
		r:          r,
		baseMem:    250*mb + r.Int63n(150*mb),
		maxWeekday: maxWeight(cfg.Workload.DiurnalWeekday),
		maxWeekend: maxWeight(cfg.Workload.DiurnalWeekend),
	}
}

const mb = int64(1) << 20

// ambientLoadCap clamps the ambient load; keeping it at or below Th2 is
// what makes the testbed's calm-span fast path sound (see simulateMachine).
const ambientLoadCap = 0.5

func maxWeight(profile [24]float64) float64 {
	maxW := 0.0
	for _, v := range profile {
		if v > maxW {
			maxW = v
		}
	}
	return maxW
}

// refresh recomputes the cached diurnal level when t has crossed an hour
// boundary (day type and hour of day are both constant within an hour).
func (a *ambient) refresh(t sim.Time) {
	w := a.cfg.Workload
	profile, maxW := w.DiurnalWeekday, a.maxWeekday
	if a.cal.DayType(t) == sim.Weekend {
		profile, maxW = w.DiurnalWeekend, a.maxWeekend
	}
	shape := 0.0
	if maxW > 0 {
		shape = profile[a.cal.HourOfDay(t)] / maxW
	}
	a.level = w.AmbientBase + w.AmbientAmp*shape
	a.nextRecalc = (t/sim.Time(time.Hour) + 1) * sim.Time(time.Hour)
}

// step advances the noise and returns (cpu load, host resident memory).
func (a *ambient) step(t sim.Time) (float64, int64) {
	if t >= a.nextRecalc {
		a.refresh(t)
	}
	// AR(1) wander.
	a.noise = 0.97*a.noise + 0.03*a.r.NormFloat64()*0.08
	load := a.level + a.noise
	if load < 0 {
		load = 0
	}
	if load > ambientLoadCap {
		load = ambientLoadCap
	}
	return load, a.baseMem
}
