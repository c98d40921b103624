package forecast

import (
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ServiceConfig parameterizes the control-plane wrapper around Online. The
// wrapped forecaster has Online's defaults and starts with no machine: the
// service grows the fleet as nodes appear.
type ServiceConfig struct {
	// Scale is virtual seconds per wall second (default 1). Loadtests
	// replay days of virtual fleet time in wall seconds, so their
	// registries run with a large Scale.
	Scale float64
}

// Service is the thread-safe forecaster a registry shard embeds to answer
// `forecast` requests. Machines are keyed by the dense ID the caller assigns
// (a registry resolves a name once and hands over the ID, so its Service
// holds no name); ObserveState and Forecast put a name map in front of the
// same bodies, and one Service is driven through one of the two. It derives
// each node's unavailability-event stream from the availability states its
// heartbeat digests report: a transition from an available (or unknown)
// state into S3/S4/S5 opens an event, the transition back closes it — the
// reduction trace.Builder applies to detector transitions, performed on the
// control plane's eventually consistent view instead of the node's own.
type Service struct {
	mu    sync.Mutex
	cfg   ServiceConfig
	on    *Online
	ids   map[string]uint32 // name-keyed callers only: IDs in order of first sight
	view  []uint8           // per machine: unseen until its first parseable state (and once forgotten), then up or down
	epoch int64             // the first nonzero stamp, mapped to virtual 0; 0 until then
}

const unseen, up, down uint8 = 0, 1, 2

// NewService creates a Service.
func NewService(cfg ServiceConfig) (*Service, error) {
	on, err := New(Config{})
	if err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	return &Service{cfg: cfg, on: on, ids: make(map[string]uint32)}, nil
}

// virtual maps a wall-clock unix-ms stamp onto virtual time.
func (s *Service) virtual(unixMS int64) sim.Time {
	return sim.Time(float64(unixMS-s.epoch) * s.cfg.Scale * float64(time.Millisecond))
}

// stateView classifies a digest availability state string: down for the
// unavailable states S3/S4/S5, up for S1/S2, and unseen — no information —
// for anything else: an empty or unparseable state must not fabricate an
// event.
func stateView(state string) uint8 {
	switch {
	case strings.HasPrefix(state, "S1"), strings.HasPrefix(state, "S2"):
		return up
	case strings.HasPrefix(state, "S3"), strings.HasPrefix(state, "S4"), strings.HasPrefix(state, "S5"):
		return down
	default:
		return unseen
	}
}

// ObserveState is ObserveStatesID for one state, from a caller that knows
// nodes by name: unknown names join the fleet. The error is always nil.
func (s *Service) ObserveState(name, state string, unixMS int64) error {
	if v := stateView(state); v != unseen && name != "" {
		s.mu.Lock()
		id, ok := s.ids[name]
		if !ok {
			id = uint32(len(s.ids))
			s.ids[name] = id
		}
		s.observeLocked(id, v, unixMS)
		s.mu.Unlock()
	}
	return nil
}

// StateReport is the availability state machine ID reported, stamped at
// UnixMS wall milliseconds.
type StateReport struct {
	ID     uint32
	State  string
	UnixMS int64
}

// ObserveStatesID ingests a batch's reports (its heartbeat or registration
// digests, or a WAL replay record's entries) in order, under one lock. The
// fleet grows to the IDs it is handed; states that do not parse are
// ignored.
func (s *Service) ObserveStatesID(rs []StateReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs {
		if v := stateView(r.State); v != unseen {
			s.observeLocked(r.ID, v, r.UnixMS)
		}
	}
}

// AdvanceTo moves the forecaster's clock to the wall stamp unixMS, as a
// report of a state its machine's view already holds would: a registry
// hands over a batch's unchanged states as their latest stamp alone.
func (s *Service) AdvanceTo(unixMS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on.AdvanceTo(s.stampLocked(unixMS))
}

// stampLocked is the virtual time of an observation's stamp; the first
// fixes the epoch.
func (s *Service) stampLocked(unixMS int64) sim.Time {
	if s.epoch == 0 {
		s.epoch = unixMS
	}
	return s.virtual(unixMS)
}

func (s *Service) observeLocked(id uint32, v uint8, unixMS int64) {
	at := s.stampLocked(unixMS)
	for int(id) >= len(s.view) {
		s.on.AddMachine()
		s.view = append(s.view, unseen)
	}
	m := trace.MachineID(id)
	if was := s.view[id]; v == down && was != down {
		s.on.ObserveStart(m, at)
	} else if v == up && was == down {
		s.on.ObserveEnd(m, at)
	}
	s.view[id] = v
	s.on.AdvanceTo(at)
}

// Forget drops machine id's history and view — a registry's unregister —
// so the ID can be handed to another node, which then starts cold.
func (s *Service) Forget(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) < len(s.view) {
		s.view[id] = unseen
		s.on.Forget(trace.MachineID(id))
	}
}

// Forecast is ForecastID by name.
func (s *Service) Forecast(name string, horizon time.Duration, nowMS int64) (f Forecast, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[name]
	if !ok {
		id = math.MaxUint32 // no such machine
	}
	return s.forecastLocked(id, horizon, nowMS)
}

// ForecastID answers machine id's survival forecast for the horizon
// starting at the wall instant nowMS. Known reports whether the machine
// has been observed since it was added or forgotten — an unknown one gets
// the cold-start prior.
func (s *Service) ForecastID(id uint32, horizon time.Duration, nowMS int64) (f Forecast, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forecastLocked(id, horizon, nowMS)
}

func (s *Service) forecastLocked(id uint32, horizon time.Duration, nowMS int64) (Forecast, bool) {
	if int64(id) >= int64(len(s.view)) || s.view[id] == unseen {
		return Forecast{Survival: 0.5}, false
	}
	start := s.virtual(nowMS)
	w := sim.Window{Start: start, End: start + sim.Time(float64(horizon)*s.cfg.Scale)}
	s.on.AdvanceTo(start)
	return s.on.ForecastWindow(trace.MachineID(id), w), true
}

// Span returns the observed span in virtual time: Online.Span, which a
// report or an AdvanceTo moves on.
func (s *Service) Span() sim.Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.on.Span()
}

// Nodes returns the number of machines observed and not forgotten, and how
// many the Service itself knows by name: none of a registry's.
func (s *Service) Nodes() (machines, names int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.view {
		if v != unseen {
			machines++
		}
	}
	return machines, len(s.ids)
}
