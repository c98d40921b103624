// Package markov fits semi-Markov availability models from recorded
// traces and runs them the other way: as seeded, deterministic generative
// fleet simulators. The model is the paper's five-state structure (Fig. 4/5)
// viewed as a marked point process on each machine's availability timeline:
// while a machine is available (S1/S2), failures of each cause — S3 CPU
// contention, S4 memory thrashing, S5 revocation — arrive with a
// piecewise-constant hazard per hour of week, and each failure holds the
// machine down for a duration drawn from that cause's empirical
// distribution, split by day type. Hour-of-week hazards capture exactly the
// daily/weekly structure of Figures 6 and 7; the ergodic-Markovian-
// environment framing (Comets et al.) is what justifies treating the fitted
// model as a generator rather than only a description.
//
// On top of the fitted models sits a scenario library (see scenario.go):
// synthetic MachineModels and structural generators for fleets the student
// lab never had — enterprise diurnal desktops, spot-style correlated
// revocation waves, multicore hosts with per-core contention, and
// container-dense hosts with OS-virtualization caps.
package markov

import (
	"fmt"

	"repro/internal/availability"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NumCauses is the number of failure causes the model distinguishes, one
// per unavailability state: S3 (CPU), S4 (memory), S5 (revocation).
const NumCauses = 3

// CauseStates maps cause index to its failure state.
var CauseStates = [NumCauses]availability.State{
	availability.S3, availability.S4, availability.S5,
}

// causeIndex maps a failure state back to its cause slot, or -1.
func causeIndex(st availability.State) int {
	switch st {
	case availability.S3:
		return 0
	case availability.S4:
		return 1
	case availability.S5:
		return 2
	default:
		return -1
	}
}

// numDayTypes indexes duration distributions by sim.DayType (Weekday,
// Weekend).
const numDayTypes = 2

// MachineModel is the fitted semi-Markov model of one machine (or of a
// whole fleet pooled into one, see Model.Fleet): hour-of-week hazard rates
// out of the available macro-state, and per-cause repair-time
// distributions split by day type.
type MachineModel struct {
	// Rates[h][c] is the hazard of cause c in hour-of-week slot h,
	// in events per available machine-hour. Slot 0 is Monday 00:00.
	Rates [sim.HoursPerWeek][NumCauses]float64
	// Durations[c][dt] is the empirical distribution of cause c's
	// unavailability durations (hours) for events starting on a day of
	// type dt. Entries may be empty when the cause never occurred.
	Durations [NumCauses][numDayTypes]*stats.ECDF
}

// TotalRate returns the combined hazard (events per available hour)
// in hour-of-week slot h.
func (m *MachineModel) TotalRate(h int) float64 {
	var sum float64
	for c := 0; c < NumCauses; c++ {
		sum += m.Rates[h][c]
	}
	return sum
}

// WeeklyRate returns the mean hazard of cause c across all hour-of-week
// slots — the aggregate events per available hour the model implies.
func (m *MachineModel) WeeklyRate(c int) float64 {
	var sum float64
	for h := 0; h < sim.HoursPerWeek; h++ {
		sum += m.Rates[h][c]
	}
	return sum / sim.HoursPerWeek
}

// MeanDuration returns the mean unavailability duration (hours) of cause
// c pooled across day types, 0 when the cause never occurred.
func (m *MachineModel) MeanDuration(c int) float64 {
	var sum float64
	var n int
	for dt := 0; dt < numDayTypes; dt++ {
		if e := m.Durations[c][dt]; e != nil && e.N() > 0 {
			sum += e.Mean() * float64(e.N())
			n += e.N()
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// duration returns the ECDF for cause c on day type dt, falling back to
// the other day type when this one has no sample (a cause seen only on
// weekdays must still be drawable on weekends).
func (m *MachineModel) duration(c int, dt sim.DayType) *stats.ECDF {
	if e := m.Durations[c][dt]; e != nil && e.N() > 0 {
		return e
	}
	other := m.Durations[c][1-int(dt)]
	if other != nil && other.N() > 0 {
		return other
	}
	return nil
}

// Model is a fitted fleet: one model pooling every machine.
type Model struct {
	// Calendar is the weekly anchoring the model was fitted under.
	Calendar sim.Calendar
	// Machines is the fleet size of the fitted trace.
	Machines int
	// Fleet pools every machine's events and exposure into one model —
	// the statistically strong estimate, and what Generate runs every
	// machine on.
	Fleet *MachineModel
}

// Validate reports structural problems with the model.
func (m *Model) Validate() error {
	if m.Fleet == nil {
		return fmt.Errorf("markov: model has no fleet-level estimate")
	}
	for h := 0; h < sim.HoursPerWeek; h++ {
		for c := 0; c < NumCauses; c++ {
			if m.Fleet.Rates[h][c] < 0 {
				return fmt.Errorf("markov: negative rate %g at hour %d cause %d", m.Fleet.Rates[h][c], h, c)
			}
		}
	}
	return nil
}

// StateDistribution returns the stationary occupancy the model implies
// over the five states, in order S1..S5, by renewal-reward: each cause
// occupies rate*meanDuration available-hours' worth of downtime per
// available hour, normalized against one hour of availability. The
// available mass is split between S1 and S2 with the fixed 55/20 ratio
// the paper's occupancy tables suggest. This is what loadgen draws fleet
// states from when a scenario is selected.
func (m *Model) StateDistribution() [5]float64 {
	var down [NumCauses]float64
	var total float64 = 1 // one available hour
	for c := 0; c < NumCauses; c++ {
		down[c] = m.Fleet.WeeklyRate(c) * m.Fleet.MeanDuration(c)
		total += down[c]
	}
	avail := 1 / total
	// The paper's fleet spends most wall time fully available; split the
	// available mass S1:S2 = 55:20 as in the loadgen stationary draw.
	const s1Share = 55.0 / 75.0
	return [5]float64{
		avail * s1Share,
		avail * (1 - s1Share),
		down[0] / total,
		down[1] / total,
		down[2] / total,
	}
}
