package testbed

import (
	"fmt"
	"io"

	"repro/internal/par"
	"repro/internal/trace"
)

// EventSink consumes the event stream of a sharded testbed run. RunSharded
// calls Machine exactly once per machine, in increasing id order, with that
// machine's events sorted by start time — concatenated, the calls form the
// same (machine, start, end)-ordered stream Trace.Sort produces — and
// ShardDone after the last machine of each shard, which is where file-
// backed sinks rotate their output. Calls are never concurrent.
type EventSink interface {
	// Machine receives one machine's unavailability events. The slice is
	// owned by the sink afterwards.
	Machine(id trace.MachineID, events []trace.Event) error
	// ShardDone marks the end of the shard covering machines [first, first+n).
	ShardDone(first trace.MachineID, n int) error
}

// RunSharded simulates the testbed in machine chunks of shardSize,
// streaming each shard's events to sink as the shard completes. Within a
// shard, machines are simulated on cfg.Parallelism workers (par.For),
// but only one shard is resident at a time, so peak memory is O(shard),
// not O(fleet) — the property that turns "1,000 machines x 1 year" from an
// OOM into a routine run. Per-machine simulations depend only on (cfg, id),
// and the sink sees machines in id order, so a fixed seed produces exactly
// the event stream of the in-memory Run path regardless of shard size or
// parallelism; the shard equivalence tests pin this byte for byte.
func RunSharded(cfg Config, shardSize int, sink EventSink) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	return runShards(cfg, shardSize, sink, nil)
}

// runShards is the one runner behind Run, RunWithOccupancy and RunSharded.
// cfg must be defaulted and valid. occ, when non-nil, has one slot per
// machine and receives that machine's state-occupancy fractions.
func runShards(cfg Config, shardSize int, sink EventSink, occ []Occupancy) error {
	// A shard never holds more than the fleet, so an oversized (or unset)
	// shard size means one shard — and sizes the buffers by the fleet, not
	// by whatever the caller asked for.
	if shardSize <= 0 || shardSize > cfg.Machines {
		shardSize = cfg.Machines
	}
	events := make([][]trace.Event, shardSize)
	for first := 0; first < cfg.Machines; first += shardSize {
		n := min(shardSize, cfg.Machines-first)
		err := par.For(n, cfg.Parallelism, func(_ *struct{}, i int) error {
			id := trace.MachineID(first + i)
			evs, timing, err := runMachine(cfg, id)
			if err != nil {
				return fmt.Errorf("testbed: machine %d: %w", first+i, err)
			}
			events[i] = evs
			if occ != nil {
				occ[id] = machineOccupancy(id, timing)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := sink.Machine(trace.MachineID(first+i), events[i]); err != nil {
				return err
			}
			events[i] = nil
		}
		if err := sink.ShardDone(trace.MachineID(first), n); err != nil {
			return err
		}
	}
	return nil
}

// SinkHeader returns the trace metadata a sink needs to frame the streamed
// events (codec headers, analyzer construction) for a sharded run of cfg.
func SinkHeader(cfg Config) trace.Header {
	cfg = cfg.withDefaults()
	return trace.Header{
		Span:     spanOf(cfg),
		Calendar: calendarOf(cfg),
		Machines: cfg.Machines,
	}
}

// CollectSink gathers a sharded run back into one in-memory Trace: it is
// how Run materializes its result, and a convenience for fleet sizes that
// still fit in memory.
type CollectSink struct {
	Trace *trace.Trace
}

// NewCollectSink prepares a sink whose Trace matches Run's output for cfg.
func NewCollectSink(cfg Config) *CollectSink {
	h := SinkHeader(cfg)
	return &CollectSink{Trace: trace.New(h.Span, h.Calendar, h.Machines)}
}

// Machine implements EventSink.
func (s *CollectSink) Machine(_ trace.MachineID, events []trace.Event) error {
	s.Trace.Events = append(s.Trace.Events, events...)
	return nil
}

// ShardDone implements EventSink.
func (s *CollectSink) ShardDone(trace.MachineID, int) error { return nil }

// EncoderSinkV2 streams a sharded run into v2 columnar block files, one per
// shard. Each file carries the full fleet header plus its shard's machine
// coverage [first, first+n) in the block directory, which is exactly what
// AnalyzeBlockFiles needs to chunk the files for the parallel analyzer —
// and what lets it credit each shard's idle machines without consulting the
// others.
type EncoderSinkV2 struct {
	header trace.Header
	opts   *trace.BlockWriterOptions
	open   func(shard int) (io.WriteCloser, error)
	bw     *trace.BlockWriter
	cur    io.WriteCloser
	shard  int
}

// NewEncoderSinkV2 builds a sink writing one block-columnar file per shard.
// opts may be nil for defaults (auto compression, default block size).
func NewEncoderSinkV2(cfg Config, opts *trace.BlockWriterOptions, open func(shard int) (io.WriteCloser, error)) *EncoderSinkV2 {
	return &EncoderSinkV2{header: SinkHeader(cfg), opts: opts, open: open}
}

func (s *EncoderSinkV2) openShard() error {
	w, err := s.open(s.shard)
	if err != nil {
		return err
	}
	bw, err := trace.NewBlockWriter(w, s.header, s.opts)
	if err != nil {
		w.Close()
		return err
	}
	s.cur, s.bw = w, bw
	return nil
}

// Machine implements EventSink.
func (s *EncoderSinkV2) Machine(_ trace.MachineID, events []trace.Event) error {
	if s.bw == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := s.bw.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// ShardDone implements EventSink: it stamps the shard's machine coverage
// into the directory and closes the file. Empty shards still produce a
// valid (blockless) file so readers see every shard.
func (s *EncoderSinkV2) ShardDone(first trace.MachineID, n int) error {
	if s.bw == nil {
		if err := s.openShard(); err != nil {
			return err
		}
	}
	s.bw.SetCoverage(first, first+trace.MachineID(n))
	err := s.bw.Close()
	if cerr := s.cur.Close(); err == nil {
		err = cerr
	}
	s.bw, s.cur = nil, nil
	s.shard++
	return err
}
