package testbed

import (
	"fmt"
	"io"
	"sync"

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

// RunSharded simulates the testbed in machine chunks of shardSize and
// streams the events to sink machine by machine: a machine's events go to
// the sink as soon as every lower-numbered machine's have, so the sink's
// work (encoding, writing) overlaps the simulation and no shard waits for
// its slowest machine. Machines are simulated on cfg.Parallelism workers
// (par.For), and a worker starts machine i only once i is within shardSize
// of the lowest machine not yet sunk, so at most a shard's worth of
// machines' events is ever held and peak memory is O(shard), not O(fleet)
// — the property that turns "1,000 machines x 1 year" from an OOM into a
// routine run. Per-machine simulations depend only on (cfg, id), and the
// sink sees machines in id order, so a fixed seed produces exactly the
// event stream of the in-memory Run path regardless of shard size or
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
//
// Finished machines wait in a ring of shardSize slots, machine i in slot
// i % shardSize, until the worker that finishes machine next (the lowest
// not yet sunk) drains every consecutive finished machine to the sink,
// closing each shard with ShardDone; any other worker only fills its slot.
// A drainer empties next's slot before it calls the sink, so while it is
// in the sink no other worker finds next ready: there is one drainer at a
// time, and sink calls are never concurrent. The sink runs outside the
// lock, so the other workers keep simulating meanwhile.
//
// The first error stops the run: no machine starts and the sink gets no
// call after it. A machine's error is returned from its own index and a
// sink error from the drainer's, which is at or below the machine being
// sunk, so of the errors met par.For returns the one a serial
// simulate-then-sink loop would meet first.
func runShards(cfg Config, shardSize int, sink EventSink, occ []Occupancy) error {
	// A shard never holds more than the fleet, so an oversized (or unset)
	// shard size means one shard — and sizes the ring by the fleet, not by
	// whatever the caller asked for.
	if shardSize <= 0 || shardSize > cfg.Machines {
		shardSize = cfg.Machines
	}
	var (
		mu     sync.Mutex
		moved  = sync.NewCond(&mu) // next advanced or the run failed
		events = make([][]trace.Event, shardSize)
		ready  = make([]bool, shardSize) // the slot holds a finished machine
		next   int                       // lowest machine not yet sunk
		failed bool                      // start and sink nothing more
	)
	fail := func(err error) error { // mu held
		failed = true
		moved.Broadcast()
		return err
	}
	return par.For(cfg.Machines, cfg.Parallelism, func(_ *struct{}, i int) error {
		mu.Lock()
		defer mu.Unlock()
		for !failed && i >= next+shardSize {
			moved.Wait()
		}
		if failed {
			return nil
		}
		mu.Unlock()
		id := trace.MachineID(i)
		evs, timing, err := runMachine(cfg, id)
		if err == nil && occ != nil {
			occ[id] = machineOccupancy(id, timing)
		}
		mu.Lock()
		if err != nil {
			return fail(fmt.Errorf("testbed: machine %d: %w", i, err))
		}
		events[i%shardSize], ready[i%shardSize] = evs, true
		for !failed && ready[next%shardSize] {
			j, slot := next, next%shardSize
			evs := events[slot]
			events[slot], ready[slot] = nil, false
			mu.Unlock()
			err := sink.Machine(trace.MachineID(j), evs)
			if first := j - j%shardSize; err == nil && (j+1-first == shardSize || j+1 == cfg.Machines) {
				err = sink.ShardDone(trace.MachineID(first), j+1-first)
			}
			mu.Lock()
			if err != nil {
				return fail(err)
			}
			next++
			moved.Broadcast()
		}
		return nil
	})
}

// SinkHeader returns the trace metadata a sink needs to frame the streamed
// events (codec headers, analyzer construction) for a sharded run of cfg.
// Its zero Calendar starts the run on a Monday.
func SinkHeader(cfg Config) trace.Header {
	cfg = cfg.withDefaults()
	return trace.Header{Span: spanOf(cfg), Machines: cfg.Machines}
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
