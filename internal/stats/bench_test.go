package stats

import (
	"math/rand"
	"testing"
)

func benchSample(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	return xs
}

func BenchmarkECDFBuild(b *testing.B) {
	xs := benchSample(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewECDF(xs)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	e := NewECDF(benchSample(10000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(float64(i % 200))
	}
}

func BenchmarkQuantile(b *testing.B) {
	xs := benchSample(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.95)
	}
}

func BenchmarkTrimmedMean(b *testing.B) {
	xs := benchSample(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrimmedMean(xs, 0.1)
	}
}

func BenchmarkGroupedBins(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGroupedBins(24)
		for d := 0; d < 66; d++ {
			for h := 0; h < 24; h += 3 {
				g.Add(d, h, 1)
			}
		}
		g.Summarize()
	}
}
