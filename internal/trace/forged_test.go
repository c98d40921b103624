package trace_test

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/predict"
	"repro/internal/trace"
)

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
	open := func() *trace.BlockFile {
		bf, err := trace.NewBlockFileBytes(trace.ForgeDirectoryCounts(good.Bytes(), math.MaxInt32))
		if err != nil {
			t.Fatal(err)
		}
		if bf.Truncated() || bf.NumBlocks() != 8 || bf.Block(3).Count != math.MaxInt32 {
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
		{"CollectEvents", func(bf *trace.BlockFile) error { _, err := trace.CollectEvents(bf.Reader()); return err }},
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
