package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Machines = 9
	cfg.Days = 6
	cfg.Seed = 77
	return cfg
}

// TestRunShardedMatchesRun pins the central sharding guarantee: for a fixed
// seed, the streamed event sequence is byte-identical to the in-memory Run
// path (one shard, collected), whatever the shard size — including sizes
// beyond the fleet, which must mean one shard rather than size a buffer.
func TestRunShardedMatchesRun(t *testing.T) {
	cfg := smallConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSize := range []int{1, 2, 4, 7, 9, 100, 0, math.MaxInt} {
		sink := NewCollectSink(cfg)
		if err := RunSharded(cfg, shardSize, sink); err != nil {
			t.Fatalf("shard size %d: %v", shardSize, err)
		}
		got := sink.Trace
		if got.Span != want.Span || got.Calendar != want.Calendar || got.Machines != want.Machines {
			t.Fatalf("shard size %d changed metadata", shardSize)
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("shard size %d: %d events, want %d", shardSize, len(got.Events), len(want.Events))
		}
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("shard size %d: event %d = %+v, want %+v", shardSize, i, got.Events[i], want.Events[i])
			}
		}
	}
}

// TestRunShardedMatchesRunFull repeats the equivalence on the paper's full
// fixed-seed 20x92 testbed — the acceptance check that sharded streaming
// leaves every downstream figure untouched.
func TestRunShardedMatchesRunFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1840 machine-day simulation")
	}
	want := fullTestbedTrace(t)
	cfg := DefaultConfig()
	sink := NewCollectSink(cfg)
	if err := RunSharded(cfg, 7, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Events) != len(want.Events) {
		t.Fatalf("sharded run: %d events, want %d", len(sink.Trace.Events), len(want.Events))
	}
	for i := range sink.Trace.Events {
		if sink.Trace.Events[i] != want.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// memShard is an in-memory io.WriteCloser standing in for a shard file.
type memShard struct {
	bytes.Buffer
	closed bool
}

func (m *memShard) Close() error {
	m.closed = true
	return nil
}

// errSink fails on a chosen Machine call, after a pause in which workers
// unbounded by the runner's window would simulate the rest of the fleet,
// checking error propagation out of RunSharded.
type errSink struct {
	failOn   int
	calls    int
	sentinel error
}

func (s *errSink) Machine(trace.MachineID, []trace.Event) error {
	s.calls++
	if s.calls == s.failOn {
		time.Sleep(50 * time.Millisecond)
		return s.sentinel
	}
	return nil
}

func (s *errSink) ShardDone(trace.MachineID, int) error { return nil }

// machinesDone reads the run-wide count of finished machine simulations.
func machinesDone(r *obs.Registry) uint64 {
	return r.Counter("fgcs_sim_machines_done_total", "machines whose simulation completed").Value()
}

// TestRunShardedPropagatesSinkError checks that a failed sink call ends
// the run with the sink's error, that the sink hears nothing after it,
// and that at most a shard's worth of machines beyond the failing one was
// simulated.
func TestRunShardedPropagatesSinkError(t *testing.T) {
	const shardSize = 3
	cfg := smallConfig()
	cfg.Parallelism = 4
	cfg.Metrics = obs.NewRegistry()
	sentinel := fmt.Errorf("sink full")
	sink := &errSink{failOn: 2, sentinel: sentinel}
	err := RunSharded(cfg, shardSize, sink)
	if !errors.Is(err, sentinel) {
		t.Fatalf("RunSharded returned %v, want the sink's error", err)
	}
	if sink.calls != sink.failOn {
		t.Errorf("sink got %d Machine calls, want none after the failing call %d", sink.calls, sink.failOn)
	}
	if done, most := machinesDone(cfg.Metrics), uint64(sink.failOn+shardSize); done > most {
		t.Errorf("%d machines simulated, want at most %d: the failing one's and a shard beyond", done, most)
	}
}

// orderSink records every call, failing the test if one enters while
// another is still inside the sink.
type orderSink struct {
	t      *testing.T
	inside atomic.Bool
	ids    []trace.MachineID
	shards [][2]int
	events []trace.Event
}

func (s *orderSink) enter() {
	if !s.inside.CompareAndSwap(false, true) {
		s.t.Error("sink called while another call was in progress")
	}
	runtime.Gosched() // widen the window in which a second call would overlap
}

func (s *orderSink) Machine(id trace.MachineID, events []trace.Event) error {
	s.enter()
	defer s.inside.Store(false)
	s.ids = append(s.ids, id)
	s.events = append(s.events, events...)
	return nil
}

func (s *orderSink) ShardDone(first trace.MachineID, n int) error {
	s.enter()
	defer s.inside.Store(false)
	s.shards = append(s.shards, [2]int{int(first), n})
	return nil
}

// TestRunShardedSinkIsSerialAndOrdered holds the EventSink contract at
// every shard size and worker count: calls never overlap, Machine sees
// every id once in increasing order, ShardDone follows each shard's last
// machine with that shard's range, and the stream is Run's.
func TestRunShardedSinkIsSerialAndOrdered(t *testing.T) {
	cfg := smallConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardSize := range []int{1, 2, 3, 7, cfg.Machines, cfg.Machines + 5} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("shard=%d/workers=%d", shardSize, workers), func(t *testing.T) {
				c := cfg
				c.Parallelism = workers
				sink := &orderSink{t: t}
				if err := RunSharded(c, shardSize, sink); err != nil {
					t.Fatal(err)
				}
				var wantIDs []trace.MachineID
				var wantShards [][2]int
				size := min(shardSize, cfg.Machines)
				for first := 0; first < cfg.Machines; first += size {
					wantShards = append(wantShards, [2]int{first, min(size, cfg.Machines-first)})
					for id := first; id < min(first+size, cfg.Machines); id++ {
						wantIDs = append(wantIDs, trace.MachineID(id))
					}
				}
				if !slices.Equal(sink.ids, wantIDs) {
					t.Errorf("Machine ids %v, want %v", sink.ids, wantIDs)
				}
				if !slices.Equal(sink.shards, wantShards) {
					t.Errorf("ShardDone calls %v, want %v", sink.shards, wantShards)
				}
				if !slices.Equal(sink.events, want.Events) {
					t.Error("event stream differs from Run's")
				}
			})
		}
	}
}

// blockingSink holds the first Machine call until the runner has had time
// to run ahead, then collects the run.
type blockingSink struct {
	*CollectSink
	t       *testing.T
	metrics *obs.Registry
	bound   uint64
}

func (s *blockingSink) Machine(id trace.MachineID, events []trace.Event) error {
	if id == 0 {
		deadline := time.Now().Add(30 * time.Second)
		for machinesDone(s.metrics) < s.bound && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		if done := machinesDone(s.metrics); done != s.bound {
			s.t.Errorf("%d machines simulated while machine 0 sat in the sink, want %d (one shard)", done, s.bound)
		}
	}
	return s.CollectSink.Machine(id, events)
}

// TestRunShardedBoundsWaitingMachines stalls the sink in machine 0 and
// checks that the four workers simulate only the first shard meanwhile:
// a machine waits to start until it is within a shard of the lowest
// machine not yet sunk, which is what keeps memory O(shard).
func TestRunShardedBoundsWaitingMachines(t *testing.T) {
	const shardSize = 3
	cfg := smallConfig()
	cfg.Machines = 12
	cfg.Parallelism = 4
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	sink := &blockingSink{CollectSink: NewCollectSink(cfg), t: t, metrics: cfg.Metrics, bound: shardSize}
	if err := RunSharded(cfg, shardSize, sink); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sink.Trace.Events, want.Events) {
		t.Error("event stream differs from Run's")
	}
}

func TestRunShardedRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Machines = -1 // zero means "default", negative is invalid
	if err := RunSharded(cfg, 4, NewCollectSink(smallConfig())); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestEncoderSinkV2RoundTrip writes a sharded run as v2 block files and
// expects (a) the shards read back in order to reproduce Run exactly, (b) each shard's
// directory to carry its machine coverage, and (c) the parallel block
// analyzer over the shards to match the in-memory analysis bit for bit.
func TestEncoderSinkV2RoundTrip(t *testing.T) {
	cfg := smallConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*memShard
	sink := NewEncoderSinkV2(cfg, &trace.BlockWriterOptions{BlockSize: 16}, func(int) (io.WriteCloser, error) {
		s := &memShard{}
		shards = append(shards, s)
		return s, nil
	})
	if err := RunSharded(cfg, 4, sink); err != nil {
		t.Fatal(err)
	}
	if wantShards := (cfg.Machines + 3) / 4; len(shards) != wantShards {
		t.Fatalf("wrote %d shards, want %d", len(shards), wantShards)
	}

	var files []*trace.BlockFile
	var got []trace.Event
	for i, s := range shards {
		if !s.closed {
			t.Fatalf("shard %d left open", i)
		}
		bf, err := trace.NewBlockFileBytes(s.Bytes())
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		lo, hi := bf.Coverage()
		if lo != trace.MachineID(i*4) || int(hi) != min(cfg.Machines, (i+1)*4) {
			t.Errorf("shard %d coverage [%d, %d), want [%d, %d)", i, lo, hi, i*4, min(cfg.Machines, (i+1)*4))
		}
		files = append(files, bf)
		// Shards cover consecutive machine ranges, so their streams
		// concatenate into the fleet stream.
		part, err := trace.ReadBlocks(bytes.NewReader(s.Bytes()))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got = append(got, part.Events...)
	}
	if len(got) != len(want.Events) {
		t.Fatalf("read back %d events, want %d", len(got), len(want.Events))
	}
	for i := range got {
		if got[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want.Events[i])
		}
	}

	a, err := trace.AnalyzeBlockFiles(files, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gotT, wantT := a.Table2(), want.MakeTable2(); !reflect.DeepEqual(gotT, wantT) {
		t.Errorf("Table2 mismatch:\n got %+v\nwant %+v", gotT, wantT)
	}
	var wantECDF [2]*stats.ECDF
	wantECDF[sim.Weekday], wantECDF[sim.Weekend] = want.IntervalECDFs()
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if !reflect.DeepEqual(a.IntervalECDF(dt), wantECDF[dt]) {
			t.Errorf("IntervalECDF(%v) mismatch", dt)
		}
		if g, w := a.HourlyOccurrences(dt), want.HourlyOccurrences(dt); !reflect.DeepEqual(g, w) {
			t.Errorf("HourlyOccurrences(%v) mismatch", dt)
		}
	}
}
