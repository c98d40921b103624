package trace

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

func BenchmarkBuildIndex(b *testing.B) {
	tr := randomTrace(1, 9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BuildIndex()
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

func BenchmarkReadBinary(b *testing.B) {
	tr := randomTrace(11, 9000)
	tr.Sort()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
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
