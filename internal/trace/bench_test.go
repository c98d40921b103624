package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/availability"
	"repro/internal/sim"
)

// BenchmarkBuildIndex is a whole index over a trace: the sorted copy, then
// every machine's layout, which its first query builds.
func BenchmarkBuildIndex(b *testing.B) {
	tr := randomTrace(1, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := tr.BuildIndex()
		for m := range tr.Machines {
			ix.CountInWindow(MachineID(m), tr.Span)
		}
	}
}

func BenchmarkIndexCountInWindow(b *testing.B) {
	tr := randomTrace(2, 9000)
	ix := tr.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Duration(i%90) * sim.Day
		ix.CountInWindow(MachineID(i%20), sim.Window{Start: start, End: start + 3*time.Hour})
	}
}

func BenchmarkIndexFirstOverlap(b *testing.B) {
	tr := randomTrace(3, 9000)
	ix := tr.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Duration(i%90) * sim.Day
		ix.FirstOverlap(MachineID(i%20), sim.Window{Start: start, End: start + 5*time.Hour})
	}
}

func BenchmarkIntervalExtraction(b *testing.B) {
	tr := randomTrace(4, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Intervals(MachineID(i % 20))
	}
}

func BenchmarkMakeTable2(b *testing.B) {
	tr := randomTrace(5, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MakeTable2()
	}
}

func BenchmarkHourlyOccurrences(b *testing.B) {
	tr := randomTrace(6, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.HourlyOccurrences(sim.Weekday)
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	tr := randomTrace(9, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	tr := randomTrace(10, 9000)
	tr.Sort()
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.SetBytes(int64(size))
}

// BenchmarkStreamAnalyzer measures the one-pass analyzer over an
// already-decoded event stream (the analysis cost with codec I/O excluded).
func BenchmarkStreamAnalyzer(b *testing.B) {
	tr := randomTrace(12, 9000)
	tr.Sort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewStreamAnalyzer(tr.Span, tr.Calendar, tr.Machines)
		for _, e := range tr.Events {
			if err := a.Observe(e); err != nil {
				b.Fatal(err)
			}
		}
		a.Finish()
	}
}

// benchTrace is the trace behind the store's layer benchmarks below: 10
// machines over 365 days, fixed seed, shaped like the testbed's output (five
// events a machine-day on the monitor's 15 s grid, minutes to half an hour
// long, free memory mostly the machine's constant).
var benchTrace = sync.OnceValue(func() *Trace {
	const tick = 15 * time.Second
	rng := rand.New(rand.NewSource(20))
	tr := New(sim.Window{Start: 0, End: 365 * sim.Day}, sim.Calendar{StartWeekday: 2}, 10)
	states := []availability.State{availability.S3, availability.S3, availability.S3, availability.S3, availability.S4, availability.S5}
	for m := 0; m < tr.Machines; m++ {
		mem := rng.Int63n(4 << 30)
		for at := sim.Time(0); ; {
			at += time.Duration(rng.ExpFloat64()*float64(4*time.Hour+30*time.Minute)) / tick * tick
			dur := 3*time.Minute + time.Duration(rng.Int63n(int64(30*time.Minute)))/tick*tick
			if at+dur >= tr.Span.End {
				break
			}
			e := Event{Machine: MachineID(m), Start: at, End: at + dur, State: states[rng.Intn(len(states))], AvailCPU: rng.Float64(), AvailMem: mem}
			if e.State == availability.S4 {
				e.AvailMem = rng.Int63n(64 << 20)
			}
			tr.Add(e)
			at += dur
		}
	}
	return tr
})

// benchShard is benchTrace encoded once in the default codec, the input of
// the read-path benchmarks — ten split blocks, one a machine, at ≈ 16.5
// bytes an event.
var benchShard = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	if err := benchTrace().WriteBlocks(&buf, nil); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkWriteBlocks is the v2 encode of benchTrace in the default codec —
// summaries, column packing, flate, directory — with the bytes it stores an
// event.
func BenchmarkWriteBlocks(b *testing.B) {
	tr := benchTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteBlocks(&buf, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(len(tr.Events)), "bytes/event")
}

func openBenchShard(b *testing.B) *BlockFile {
	b.Helper()
	bf, err := NewBlockFileBytes(benchShard())
	if err != nil {
		b.Fatal(err)
	}
	return bf
}

// BenchmarkDecodeBlock is one inflate plus one column decode of a block —
// one machine-year — into a warm BlockBuf: the unit every reader of the
// store pays.
func BenchmarkDecodeBlock(b *testing.B) {
	bf := openBenchShard(b)
	var buf BlockBuf
	for i := 0; i < bf.NumBlocks(); i++ { // warm: the buffer at its largest
		if _, err := bf.DecodeBlock(i, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bf.DecodeBlock(i%bf.NumBlocks(), &buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectEvents loads the stored shard whole — every block decoded
// into its place in one slice, then validated — as the fit stage's reader does.
func BenchmarkCollectEvents(b *testing.B) {
	bf := openBenchShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectEvents(bf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeBlockFiles is Table 2 / Fig 6 / Fig 7 off the stored
// shard: decode, accumulate, merge.
func BenchmarkAnalyzeBlockFiles(b *testing.B) {
	files := []*BlockFile{openBenchShard(b)}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeBlockFiles(files, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockIndexFirstTouch is what the first point query on a machine
// costs a fresh block index: decode its blocks, lay out the machine.
func BenchmarkBlockIndexFirstTouch(b *testing.B) {
	bf := openBenchShard(b)
	w := sim.Window{Start: 100 * sim.Day, End: 100*sim.Day + 3*time.Hour}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewBlockIndex(bf)
		ix.CountInWindow(MachineID(i%10), w)
		if err := ix.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockIndexQueryMix is one window's five point queries on a warm
// block index — every block decoded, every machine laid out — over 3-hour
// windows at a 2-hour stride, one machine's windows before the next: the
// query bodies alone.
func BenchmarkBlockIndexQueryMix(b *testing.B) {
	bf := openBenchShard(b)
	ix := NewBlockIndex(bf)
	span := bf.Header().Span
	for m := range bf.Header().Machines {
		ix.CountInWindow(MachineID(m), span)
	}
	windows := int((span.Duration()-3*time.Hour)/(2*time.Hour)) + 1
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := MachineID(i / windows % bf.Header().Machines)
		start := span.Start + sim.Time(i%windows)*2*time.Hour
		w := sim.Window{Start: start, End: start + 3*time.Hour}
		if e, ok := ix.FirstOverlap(m, w); ok {
			sum += int64(e.Start)
		}
		sum += int64(ix.CountInWindow(m, w))
		if ix.AnyOverlap(m, w) {
			sum++
		}
		if e, ok := ix.NextEventAfter(m, w.Start); ok {
			sum += int64(e.End)
		}
		if t, ok := ix.LastEndBefore(m, w.End); ok {
			sum += int64(t)
		}
	}
	if err := ix.Err(); err != nil || sum == 0 {
		b.Fatal(err, sum)
	}
}
