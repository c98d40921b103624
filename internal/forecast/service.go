package forecast

import (
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ServiceConfig parameterizes the control-plane wrapper around Online.
type ServiceConfig struct {
	// Online configures the wrapped forecaster. Machines is ignored: the
	// service grows the fleet as node names appear.
	Online Config
	// EpochMS is the wall-clock unix-milliseconds instant mapped to the
	// virtual span start. Zero means "the first observation's stamp".
	EpochMS int64
	// Scale is virtual seconds per wall second (default 1). Loadtests
	// replay days of virtual fleet time in wall seconds, so their
	// registries run with a large Scale.
	Scale float64
}

// Service is the thread-safe, name-keyed forecaster a registry shard
// embeds to answer `forecast` requests. It derives each node's
// unavailability-event stream from the availability states its heartbeat
// digests report: a digest transition from an available (or unknown) state
// into S3/S4/S5 opens an event, the transition back closes it — the same
// reduction trace.Builder applies to detector transitions, performed on
// the control plane's eventually consistent view instead of the node's
// local one.
type Service struct {
	mu    sync.Mutex
	cfg   ServiceConfig
	on    *Online
	ids   map[string]trace.MachineID
	down  []bool // current down-ness per machine, from the digest view
	epoch int64  // resolved EpochMS (0 until the first observation)
	fixed bool   // epoch came from config, not from the first stamp
}

// NewService creates a Service.
func NewService(cfg ServiceConfig) (*Service, error) {
	c := cfg.Online
	c.Machines = 0
	on, err := New(c)
	if err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	return &Service{
		cfg:   cfg,
		on:    on,
		ids:   make(map[string]trace.MachineID),
		epoch: cfg.EpochMS,
		fixed: cfg.EpochMS != 0,
	}, nil
}

// virtual maps a wall-clock unix-ms stamp onto virtual time.
func (s *Service) virtual(unixMS int64) sim.Time {
	return s.cfg.Online.Start + sim.Time(float64(unixMS-s.epoch)*s.cfg.Scale*float64(time.Millisecond))
}

// stateDown classifies a digest availability state string: true for the
// unavailable states S3/S4/S5, false for S1/S2, and no information
// (second result false) for anything else — an empty or unparseable state
// must not fabricate an event.
func stateDown(state string) (down, ok bool) {
	switch {
	case strings.HasPrefix(state, "S1"), strings.HasPrefix(state, "S2"):
		return false, true
	case strings.HasPrefix(state, "S3"), strings.HasPrefix(state, "S4"), strings.HasPrefix(state, "S5"):
		return true, true
	default:
		return false, false
	}
}

func (s *Service) idLocked(name string) trace.MachineID {
	if m, ok := s.ids[name]; ok {
		return m
	}
	m := s.on.AddMachine()
	s.ids[name] = m
	s.down = append(s.down, false)
	return m
}

// ObserveState ingests one node's reported availability state stamped at
// unixMS wall milliseconds (a heartbeat digest, a WAL replay entry, or a
// gossip exchange — all three flow through here). Unknown names join the
// fleet; states that do not parse are ignored.
func (s *Service) ObserveState(name, state string, unixMS int64) error {
	down, ok := stateDown(state)
	if !ok || name == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch == 0 && !s.fixed {
		s.epoch = unixMS
		s.fixed = true
	}
	m := s.idLocked(name)
	at := s.virtual(unixMS)
	if down && !s.down[m] {
		s.on.ObserveStart(m, at)
	} else if !down && s.down[m] {
		s.on.ObserveEnd(m, at)
	}
	s.down[m] = down
	s.on.AdvanceTo(at)
	return nil
}

// MarkDead records a liveness expiry (the registry's URR signal: the
// node's heartbeats stopped) as an event start, if the node is not already
// inside one.
func (s *Service) MarkDead(name string, unixMS int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.ids[name]
	if !ok {
		return nil
	}
	if s.epoch == 0 && !s.fixed {
		s.epoch = unixMS
		s.fixed = true
	}
	if !s.down[m] {
		s.on.ObserveStart(m, s.virtual(unixMS))
		s.down[m] = true
	}
	return nil
}

// Forecast answers one node's survival forecast for the horizon starting
// at the wall instant nowMS. Known reports whether the node has ever been
// observed — an unknown node gets the cold-start prior.
func (s *Service) Forecast(name string, horizon time.Duration, nowMS int64) (f Forecast, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.ids[name]
	if !ok {
		return Forecast{Survival: 0.5}, false
	}
	start := s.virtual(nowMS)
	w := sim.Window{Start: start, End: start + sim.Time(float64(horizon)*s.cfg.Scale)}
	s.on.AdvanceTo(start)
	return s.on.ForecastWindow(m, w), true
}

// Nodes returns the number of nodes the service has observed.
func (s *Service) Nodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// Events returns the total ingested event starts.
func (s *Service) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.on.Events()
}
