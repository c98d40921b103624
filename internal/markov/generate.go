package markov

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// GenConfig describes one generated fleet. The zero value is not runnable;
// Machines and Days are required.
type GenConfig struct {
	// Machines is the generated fleet size.
	Machines int
	// Days is the generated span in whole days from the epoch.
	Days int
	// StartWeekday anchors the calendar (0 = Monday).
	StartWeekday int
	// Seed roots all randomness; the same (model, config) pair always
	// yields a byte-identical trace.
	Seed int64
}

// Validate reports configuration errors.
func (c GenConfig) Validate() error {
	if c.Machines <= 0 {
		return fmt.Errorf("markov: need at least one machine, got %d", c.Machines)
	}
	if c.Days <= 0 {
		return fmt.Errorf("markov: need at least one day, got %d", c.Days)
	}
	return nil
}

// Generate runs the model forward as a fleet simulator: for each machine,
// failures arrive by non-homogeneous exponential sampling against the
// piecewise-constant hour-of-week hazard (draw u ~ Exp(1), integrate
// total hazard across hour boundaries until it is consumed), the cause is
// drawn categorically from the slot's per-cause rates, and the repair
// time comes from the cause's duration ECDF by inverse transform. Each
// machine draws from its own named streams, so the output is independent
// of generation order and byte-identical for a fixed seed: machines are
// generated on workers and joined in machine order.
func Generate(m *Model, cfg GenConfig) (*trace.Trace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cal := sim.Calendar{StartWeekday: cfg.StartWeekday}
	span := sim.Window{Start: 0, End: sim.Time(cfg.Days) * sim.Day}
	src := sim.NewSource(cfg.Seed)
	parts := make([][]trace.Event, cfg.Machines)
	par.For(cfg.Machines, 0, func(_ *struct{}, id int) error {
		part := &trace.Trace{Events: make([]trace.Event, 0, expectedEvents(m.Fleet, cfg.Days))}
		generateMachine(part, trace.MachineID(id), m.Fleet, cal, span, src.Stream("markov/"+strconv.Itoa(id)+"/events"))
		parts[id] = part.Events
		return nil
	})
	tr := &trace.Trace{Span: span, Calendar: cal, Machines: cfg.Machines, Events: slices.Concat(parts...)}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("markov: generated trace invalid: %w", err)
	}
	return tr, nil
}

// expectedEvents sizes a machine's slice: its hazard's mean over days,
// above what it draws (none while down), and at most 2²⁰.
func expectedEvents(mm *MachineModel, days int) int {
	perHour := 0.0
	for c := range NumCauses {
		perHour += mm.WeeklyRate(c)
	}
	if n := perHour * float64(days) * 24; n < 1<<20 {
		return max(int(n), 0)
	}
	return 1 << 20
}

// generateMachine appends one machine's events to the trace.
func generateMachine(tr *trace.Trace, id trace.MachineID, mm *MachineModel, cal sim.Calendar, span sim.Window, r *rand.Rand) {
	t := span.Start
	for t < span.End {
		at, ok := nextFailure(mm, cal, t, span.End, r)
		if !ok {
			return
		}
		c := drawCause(mm, cal.HourOfWeek(at), r)
		ecdf := mm.duration(c, cal.DayType(at))
		if ecdf == nil {
			// A slot can carry a rate for a cause with no duration sample
			// only on hand-built models; treat it as a zero-length blip
			// and move on past a minimal step.
			t = at + time.Second
			continue
		}
		d := time.Duration(ecdf.Sample(r.Float64()) * float64(time.Hour))
		if d <= 0 {
			d = time.Second
		}
		end := at + d
		if end > span.End {
			end = span.End
		}
		if end > at {
			tr.Add(trace.Event{
				Machine: id,
				Start:   at,
				End:     end,
				State:   CauseStates[c],
				// The load context just before the failure: a busy but
				// not saturated host, drawn per event so codec surfaces
				// exercise real variation.
				AvailCPU: 0.5 + 0.5*r.Float64(),
				AvailMem: 256<<20 + r.Int63n(1<<30),
			})
		}
		t = end
	}
}

// nextFailure integrates the total hazard forward from t against one unit-
// exponential draw and returns the failure instant, or false when the
// hazard budget outlives the span. Integration walks hour boundaries
// because the hazard is constant within an hour-of-week slot.
func nextFailure(mm *MachineModel, cal sim.Calendar, t, end sim.Time, r *rand.Rand) (sim.Time, bool) {
	u := r.ExpFloat64() // hazard mass to consume
	for t < end {
		next := sim.Time(sim.FloorHour(t)+1) * time.Hour
		if next > end {
			next = end
		}
		lam := mm.TotalRate(cal.HourOfWeek(t)) // events per hour
		if lam > 0 {
			span := (next - t).Hours()
			if need := u / lam; need <= span {
				return t + time.Duration(need*float64(time.Hour)), true
			}
			u -= lam * span
		}
		t = next
	}
	return 0, false
}

// drawCause picks the failure cause for hour-of-week slot h, categorically
// proportional to the slot's per-cause rates.
func drawCause(mm *MachineModel, h int, r *rand.Rand) int {
	total := mm.TotalRate(h)
	u := r.Float64() * total
	for c := 0; c < NumCauses-1; c++ {
		u -= mm.Rates[h][c]
		if u < 0 {
			return c
		}
	}
	return NumCauses - 1
}
