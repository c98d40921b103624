package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5}, 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if got := Min(xs); got != -9 {
		t.Errorf("Min = %v, want -9", got)
	}
	if got := Max(xs); got != 6 {
		t.Errorf("Max = %v, want 6", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5}, // clamped
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{10, 20}, 0.5); !almostEqual(got, 15, 1e-12) {
		t.Errorf("Quantile interpolated = %v, want 15", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median even = %v, want 2.5", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// One wild outlier should be discarded at trim=0.1 with 10 points.
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1000}
	if got := TrimmedMean(xs, 0.1); !almostEqual(got, 1, 1e-12) {
		t.Errorf("TrimmedMean = %v, want 1", got)
	}
	// trim=0 equals the plain mean.
	if got, want := TrimmedMean(xs, 0), Mean(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("TrimmedMean(0) = %v, want %v", got, want)
	}
	if got := TrimmedMean(nil, 0.2); got != 0 {
		t.Errorf("TrimmedMean(empty) = %v, want 0", got)
	}
	// Out-of-range trims are clamped rather than panicking.
	if got := TrimmedMean(xs, 0.9); got == 0 {
		t.Error("TrimmedMean with excessive trim returned 0, want median-ish value")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson perfectly correlated = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson anti-correlated = %v, want -1", got)
	}
	flat := []float64{7, 7, 7, 7, 7}
	if got := Pearson(xs, flat); got != 0 {
		t.Errorf("Pearson with zero variance = %v, want 0", got)
	}
	if got := Pearson(xs, xs[:3]); got != 0 {
		t.Errorf("Pearson length mismatch = %v, want 0", got)
	}
}

// Property: mean lies between min and max; quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: trimmed mean is bounded by the untrimmed extremes.
func TestTrimmedMeanBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.NormFloat64() * 100
		}
		trim := rng.Float64() * 0.6
		tm := TrimmedMean(xs, trim)
		if tm < Min(xs)-1e-9 || tm > Max(xs)+1e-9 {
			t.Fatalf("TrimmedMean %v outside sample range [%v, %v]", tm, Min(xs), Max(xs))
		}
	}
}

func TestAutoCorrelation(t *testing.T) {
	// A strict period-4 series correlates perfectly at lag 4 and
	// negatively at lag 2.
	var xs []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, []float64{0, 1, 2, 1}[i%4])
	}
	if got := AutoCorrelation(xs, 4); !almostEqual(got, 1, 1e-9) {
		t.Errorf("lag-4 ACF = %v, want 1", got)
	}
	if got := AutoCorrelation(xs, 2); got >= 0 {
		t.Errorf("lag-2 ACF = %v, want negative", got)
	}
	// Invalid lags.
	if AutoCorrelation(xs, 0) != 0 || AutoCorrelation(xs, len(xs)) != 0 || AutoCorrelation(xs, -1) != 0 {
		t.Error("invalid lags should return 0")
	}
	// Constant series has no correlation structure.
	if AutoCorrelation([]float64{5, 5, 5, 5, 5, 5}, 2) != 0 {
		t.Error("constant series ACF should be 0")
	}
}
