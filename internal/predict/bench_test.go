package predict

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func benchHistory(b *testing.B) *trace.Trace {
	b.Helper()
	return periodicTrace(70, 20)
}

func BenchmarkHistoryWindowPredictCount(b *testing.B) {
	h := &HistoryWindow{}
	h.Train(NewTraceHistory(benchHistory(b)))
	day := sim.Time(70) * sim.Day
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.Window{
			Start: day + time.Duration(i%20)*time.Hour,
			End:   day + time.Duration(i%20)*time.Hour + 3*time.Hour,
		}
		h.PredictCount(trace.MachineID(i%20), w)
	}
}

func BenchmarkHistoryWindowPredictSurvival(b *testing.B) {
	h := &HistoryWindow{Trim: 0.1}
	h.Train(NewTraceHistory(benchHistory(b)))
	day := sim.Time(70) * sim.Day
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.Window{Start: day + 10*time.Hour, End: day + 13*time.Hour}
		h.PredictSurvival(trace.MachineID(i%20), w)
	}
}

func BenchmarkSemiMarkovPredictSurvival(b *testing.B) {
	s := &SemiMarkov{}
	s.Train(NewTraceHistory(benchHistory(b)))
	day := sim.Time(70) * sim.Day
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := sim.Window{Start: day + time.Duration(i%24)*time.Hour, End: day + time.Duration(i%24)*time.Hour + 3*time.Hour}
		s.PredictSurvival(trace.MachineID(i%20), w)
	}
}

// BenchmarkEvaluateHistoryWindow measures the full evaluation loop for the
// paper's main predictor pair.
func BenchmarkEvaluateHistoryWindow(b *testing.B) {
	tr := benchHistory(b)
	cfg := EvalConfig{TrainDays: 28, Window: 3 * time.Hour}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(tr, []Predictor{&HistoryWindow{}, &HistoryWindow{Trim: 0.1}}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateAllPredictors(b *testing.B) {
	tr := benchHistory(b)
	cfg := EvalConfig{TrainDays: 28, Window: 3 * time.Hour, MaxMachines: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(tr, DefaultPredictors(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScore prices each predictor of the evaluation lineup on its own:
// one op scores every test window of the benchmark trace with a trained
// predictor, the windows/s metric is what bench/'s predict.<p>.windows_s
// probes report at full size. A predictor that costs O(history) per window
// where its neighbours cost O(1) shows here as a row an order of magnitude
// below the rest.
func BenchmarkScore(b *testing.B) {
	tr := benchHistory(b)
	ts, err := newTestSet(tr.Span, tr.Machines, tr.BuildIndex(), EvalConfig{TrainDays: 28, Window: 3 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	history := NewTraceHistory(tr.Before(ts.cut))
	scratch := ts.scratch()
	for _, p := range DefaultPredictors() {
		b.Run(p.Name(), func(b *testing.B) {
			p.Train(history)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.score(p, scratch)
			}
			b.ReportMetric(float64(b.N*len(ts.windows))/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
