package markov

import "testing"

// BenchmarkFit fits the pooled fleet model to a fixed-seed 10-machine,
// 365-day enterprise trace.
func BenchmarkFit(b *testing.B) {
	tr, err := GenerateScenario("enterprise", GenConfig{Machines: 10, Days: 365, Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(tr, FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate runs the enterprise model forward over a trace-analyze
// pass's fit shape, 20 machines × 182 days.
func BenchmarkGenerate(b *testing.B) {
	m := EnterpriseModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(m, GenConfig{Machines: 20, Days: 182, Seed: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
