package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/predict"
	"repro/internal/trace"
)

// forgedHeaderFile returns a cleanly closed v2 file of no blocks — header,
// empty directory covering the fleet, footer — whose header names machines.
// It is written by hand because NewBlockWriter refuses what no reader would
// open.
func forgedHeaderFile(machines uint64) []byte {
	b := append([]byte("FGCB"), 2) // magic, version
	b = binary.AppendVarint(b, 0)  // span [0, 1 h)
	b = binary.AppendVarint(b, int64(time.Hour))
	b = binary.AppendVarint(b, 1) // start weekday
	b = binary.AppendUvarint(b, machines)
	dirOff := len(b)
	b = append(b, 'D', 0, 0) // no blocks, coverage from machine 0 ...
	b = binary.AppendVarint(b, int64(machines))
	b = binary.LittleEndian.AppendUint64(b, uint64(dirOff))
	return append(b, "FGC2"...)
}

// TestForgedHeaderMachinesAreRefused: a header is outside input, and the
// analyzer sizes 32 B of cause counts a machine from it before reading an
// event. A 39-byte file naming 2^28 machines must be refused by every loader,
// by name where there is one, before anything is sized from it, and the
// writer must refuse to write that header at all.
func TestForgedHeaderMachinesAreRefused(t *testing.T) {
	if tr, err := trace.ReadBlocks(bytes.NewReader(forgedHeaderFile(3))); err != nil || tr.Machines != 3 {
		t.Fatalf("the forgery's honest twin does not load: %v", err)
	}
	const machines = 1 << 28
	forged := forgedHeaderFile(machines)
	path := filepath.Join(t.TempDir(), "forged.fgcb")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errRead := trace.ReadFile(path)
	_, errPaths := trace.AnalyzeBlockPaths([]string{path}, 1)
	for name, err := range map[string]error{"ReadFile": errRead, "AnalyzeBlockPaths": errPaths} {
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "268435456 machines") {
			t.Errorf("%s: %v, want an error naming %s and its machine count", name, err, path)
		}
	}
	if _, err := trace.ReadBlocks(bytes.NewReader(forged)); err == nil || !strings.Contains(err.Error(), "268435456 machines") {
		t.Errorf("ReadBlocks: %v, want the machine count refused", err)
	}
	if _, err := trace.NewBlockWriter(io.Discard, trace.Header{Machines: machines}, nil); err == nil {
		t.Error("NewBlockWriter wrote a header no reader opens")
	}
}

// TestForgedDirectoryCountsAreCapped: the directory is outside input.
// loadDirectory accepts any per-block count up to 2^31 and only DecodeBlock
// holds it to the block, so every capacity the read path takes from
// BlockFile.Events or BlockMeta.Count is attacker-sized unless capped. A
// file whose directory claims 2^31-1 events a block must open, must fail
// each consumer with the count-mismatch error DecodeBlock always gave, and
// must not have cost more than the one cap getting there.
func TestForgedDirectoryCountsAreCapped(t *testing.T) {
	tr := trace.RandomTrace(31, 2000)
	tr.Sort()
	var good bytes.Buffer
	if err := tr.WriteBlocks(&good, &trace.BlockWriterOptions{BlockSize: 256}); err != nil {
		t.Fatal(err)
	}
	honest, err := trace.NewBlockFileBytes(good.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	open := func() *trace.BlockFile {
		bf, err := trace.NewBlockFileBytes(trace.ForgeDirectoryCounts(good.Bytes(), math.MaxInt32))
		if err != nil {
			t.Fatal(err)
		}
		if bf.Truncated() || bf.NumBlocks() != honest.NumBlocks() || bf.Block(3).Count != math.MaxInt32 {
			t.Fatalf("the forgery did not open on its directory: truncated %v, %d blocks, block 3 claims %d events",
				bf.Truncated(), bf.NumBlocks(), bf.Block(3).Count)
		}
		return bf
	}
	// The cap in bytes — as events, the widest thing a hint sizes — plus
	// 4 MiB for what an honest run of the same call over 2000 events
	// allocates (under 2 MiB for the largest, the predictor evaluation).
	limit := uint64(trace.MaxEventsHint)*uint64(unsafe.Sizeof(trace.Event{})) + 4<<20
	consumers := []struct {
		name string
		run  func(bf *trace.BlockFile) error
	}{
		{"CollectEvents", func(bf *trace.BlockFile) error { _, err := trace.CollectEvents(bf); return err }},
		{"AnalyzeBlockFiles", func(bf *trace.BlockFile) error {
			_, err := trace.AnalyzeBlockFiles([]*trace.BlockFile{bf}, 2)
			return err
		}},
		{"EvaluateBlocks", func(bf *trace.BlockFile) error {
			_, err := predict.EvaluateBlocks(bf, predict.DefaultPredictors(), predict.DefaultEvalConfig())
			return err
		}},
	}
	for _, c := range consumers {
		bf := open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run(bf)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "count disagrees with directory") {
			t.Errorf("%s over the forged file: error %v, want DecodeBlock's count mismatch", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s allocated %d bytes before refusing the forged file, more than the %d the cap allows", c.name, got, limit)
		}
	}
}
