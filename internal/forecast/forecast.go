package forecast

import (
	"fmt"
	"sort"

	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes an Online forecaster. The zero value (plus a
// machine count) mirrors the offline predictor defaults: untrimmed
// history-window means.
type Config struct {
	// Calendar anchors virtual time to weekdays/weekends, exactly as the
	// trace the offline predictors train on would.
	Calendar sim.Calendar
	// Machines is the initial fleet size (ids 0..Machines-1). AddMachine
	// grows the fleet at runtime (the control-plane service does this as
	// nodes register).
	Machines int
	// EventCapacity bounds the per-machine ring of event starts; when it
	// overflows, the oldest starts are dropped and forecasts see only the
	// retained horizon. Default 4096 — with the paper's ~4 events per
	// machine-day that is roughly three years of history per machine.
	EventCapacity int
	// Trim is the trimmed-mean fraction of the history-window forecast
	// (predict.HistoryWindow.Trim).
	Trim float64
	// Start is the virtual instant observation began (the span start of
	// the equivalent offline training trace). Default 0.
	Start sim.Time
}

func (c Config) withDefaults() Config {
	if c.EventCapacity == 0 {
		c.EventCapacity = 4096
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Machines < 0 {
		return fmt.Errorf("forecast: negative machine count %d", c.Machines)
	}
	if c.EventCapacity < 0 {
		return fmt.Errorf("forecast: negative event capacity %d", c.EventCapacity)
	}
	if c.Trim < 0 || c.Trim >= 0.5 {
		return fmt.Errorf("forecast: trim fraction %v outside [0, 0.5)", c.Trim)
	}
	return nil
}

// machineState is one machine's incrementally maintained history.
type machineState struct {
	// starts is a bounded chronological ring of event start times; head
	// indexes the oldest retained entry, n is the live count. The backing
	// array grows on demand up to Config.EventCapacity.
	starts []sim.Time
	head   int
	n      int
	// dropped counts starts evicted by the capacity bound; the retention
	// horizon is the oldest retained start when dropped > 0. Only tests read
	// it today; it stays for the forecast-history retention horizon a
	// served forecast is to report (ROADMAP).
	dropped int64
}

// at returns the i-th oldest retained start.
func (ms *machineState) at(i int) sim.Time {
	return ms.starts[(ms.head+i)%len(ms.starts)]
}

// countStarts returns how many retained event starts fall in [w.Start,
// w.End) — the ring's equivalent of Index.CountInWindow.
func (ms *machineState) countStarts(w sim.Window) int {
	lo := sort.Search(ms.n, func(i int) bool { return ms.at(i) >= w.Start })
	hi := sort.Search(ms.n, func(i int) bool { return ms.at(i) >= w.End })
	return hi - lo
}

// push appends a start, keeping the ring sorted (backdated S3 transitions
// can arrive up to a transient window out of order) and evicting the
// oldest entry when the ring is full at capacity.
func (ms *machineState) push(at sim.Time, capacity int) {
	if capacity <= 0 {
		return
	}
	if ms.n == len(ms.starts) && len(ms.starts) < capacity {
		// Grow lazily. head stays 0 until the ring first fills to capacity, so
		// appending extends the chronological order in place.
		ms.starts = append(ms.starts, 0)
	}
	if ms.n == len(ms.starts) {
		ms.head = (ms.head + 1) % len(ms.starts)
		ms.n--
		ms.dropped++
	}
	i := ms.n
	ms.starts[(ms.head+i)%len(ms.starts)] = at
	ms.n++
	// Bubble the new start back over any later ones (rare: only backdated
	// transitions land out of order, and at most by the transient window).
	for i > 0 && ms.at(i-1) > ms.at(i) {
		a, b := (ms.head+i-1)%len(ms.starts), (ms.head+i)%len(ms.starts)
		ms.starts[a], ms.starts[b] = ms.starts[b], ms.starts[a]
		i--
	}
}

// Online is the incremental forecaster. Ingest is O(1) per event;
// forecasts are computed on demand from the retained history
// and are bit-equal to offline predictors batch-trained on the same
// prefix. Not safe for concurrent use — Service adds the locking the
// control plane needs.
type Online struct {
	cfg Config
	ms  []*machineState // nil until the first event, and once forgotten
	end sim.Time        // observation high-water: the span end at query time

	events int64 // total ingested event starts

	// The forecast maths lives in internal/predict; this runs it over the
	// ring (Online is its predict.History).
	hw predict.HistoryWindow
}

// New creates an Online forecaster.
func New(cfg Config) (*Online, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	o := &Online{
		cfg: cfg,
		end: cfg.Start,
		hw:  predict.HistoryWindow{Trim: cfg.Trim},
	}
	for i := 0; i < cfg.Machines; i++ {
		o.AddMachine()
	}
	return o, nil
}

// AddMachine grows the fleet by one and returns the new machine id.
func (o *Online) AddMachine() trace.MachineID {
	o.ms = append(o.ms, nil)
	return trace.MachineID(len(o.ms) - 1)
}

// Forget drops machine m's history: it is as AddMachine left it.
func (o *Online) Forget(m trace.MachineID) {
	if o.inFleet(m) {
		o.ms[m] = nil
	}
}

// Machines returns the current fleet size.
func (o *Online) Machines() int { return len(o.ms) }

// Events returns the total number of ingested event starts.
func (o *Online) Events() int64 { return o.events }

// Span returns the observed span [Start, high-water) — the span of the
// offline training trace an equal batch predictor would have been trained
// on.
func (o *Online) Span() sim.Window { return sim.Window{Start: o.cfg.Start, End: o.end} }

// AdvanceTo moves the observation high-water to t (monotone; earlier
// times are ignored). Forecast history only includes fully observed
// windows, so advancing the span is what admits the most recent history
// into forecasts.
func (o *Online) AdvanceTo(t sim.Time) {
	if t > o.end {
		o.end = t
	}
}

func (o *Online) inFleet(m trace.MachineID) bool { return m >= 0 && int(m) < len(o.ms) }

// build returns machine m's history, built on first use; nil outside the fleet.
func (o *Online) build(m trace.MachineID) *machineState {
	if !o.inFleet(m) {
		return nil
	}
	if o.ms[m] == nil {
		o.ms[m] = &machineState{}
	}
	return o.ms[m]
}

// ObserveStart ingests one event start (the machine left the available
// states at that instant). O(1) amortized.
func (o *Online) ObserveStart(m trace.MachineID, at sim.Time) {
	ms := o.build(m)
	if ms == nil {
		return
	}
	ms.push(at, o.cfg.EventCapacity)
	o.events++
	o.AdvanceTo(at)
}

// ObserveEnd ingests one event end (availability returned). O(1).
func (o *Online) ObserveEnd(m trace.MachineID, at sim.Time) {
	if o.inFleet(m) {
		o.AdvanceTo(at)
	}
}

// ObserveEvent ingests one closed unavailability event from a recorded
// stream (e.g. a replayed fleet trace). Events must arrive in a causally
// plausible order — sorted by end time is the natural feed, since an event
// is only known once it closes.
func (o *Online) ObserveEvent(e trace.Event) {
	o.ObserveStart(e.Machine, e.Start)
	o.ObserveEnd(e.Machine, e.End)
}

// Calendar implements predict.History.
func (o *Online) Calendar() sim.Calendar { return o.cfg.Calendar }

// CountInWindow implements predict.History over the retained ring: how
// many event starts of machine m fall in [w.Start, w.End), 0 for a machine
// outside the fleet or with no history yet.
func (o *Online) CountInWindow(m trace.MachineID, w sim.Window) int {
	if !o.inFleet(m) || o.ms[m] == nil {
		return 0
	}
	return o.ms[m].countStarts(w)
}

// PredictSurvival forecasts P(no event starts in w's clock window) as the
// Laplace-smoothed fraction of failure-free history windows. The
// no-information answer (unknown machine, no history) is 0.5.
func (o *Online) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival, _ := o.hw.Estimate(o, m, w)
	return survival
}

// Forecast is what one machine's history says about a window.
type Forecast struct {
	// Survival is the history-window survival forecast (the paper's
	// predictor), 0.5 when uninformed.
	Survival float64
	// Samples is the number of history windows that informed Survival; 0
	// means the forecast is the cold-start prior.
	Samples int
}

// ForecastWindow forecasts machine m over w: one history-window walk.
func (o *Online) ForecastWindow(m trace.MachineID, w sim.Window) Forecast {
	_, survival, samples := o.hw.Estimate(o, m, w)
	return Forecast{Survival: survival, Samples: samples}
}
