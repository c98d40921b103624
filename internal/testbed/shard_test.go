package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

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

// errSink fails on a chosen call, checking error propagation out of
// RunSharded.
type errSink struct {
	failOn   int
	calls    int
	sentinel error
}

func (s *errSink) Machine(trace.MachineID, []trace.Event) error {
	s.calls++
	if s.calls == s.failOn {
		return s.sentinel
	}
	return nil
}

func (s *errSink) ShardDone(trace.MachineID, int) error { return nil }

func TestRunShardedPropagatesSinkError(t *testing.T) {
	cfg := smallConfig()
	sentinel := fmt.Errorf("sink full")
	err := RunSharded(cfg, 3, &errSink{failOn: 2, sentinel: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("RunSharded returned %v, want the sink's error", err)
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
