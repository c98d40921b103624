package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Quantile returns the smallest sample value v with At(v) >= q.
// q is clamped to [0,1]; an empty ECDF yields 0.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d, want 4", e.N())
	}
	if got := e.Survival(2); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("Survival(2) = %v, want 0.25", got)
	}
	if got := e.MassBetween(1, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("MassBetween(1,2) = %v, want 0.5", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.Survival(5) != 1 || e.Quantile(0.5) != 0 || e.N() != 0 {
		t.Error("empty ECDF should return zero mass everywhere")
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if got := e.At(3); !almostEqual(got, 1, 1e-12) {
		t.Errorf("ECDF aliased caller slice: At(3) = %v, want 1", got)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.Float64() * 50
	}
	e := NewECDF(xs)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		v := e.Quantile(q)
		if at := e.At(v); at < q-1e-9 {
			t.Errorf("At(Quantile(%v)) = %v < q", q, at)
		}
	}
}

// Properties: At is monotone nondecreasing, bounded in [0,1], and
// At + Survival == 1.
func TestECDFProperties(t *testing.T) {
	f := func(sample []float64, probes []float64) bool {
		clean := make([]float64, 0, len(sample))
		for _, v := range sample {
			if v == v && v < 1e12 && v > -1e12 { // exclude NaN/huge
				clean = append(clean, v)
			}
		}
		e := NewECDF(clean)
		prev := -1.0
		probeVals := append([]float64{-1e12, 0, 1e12}, probes...)
		// Sort-free monotonicity check via pairwise comparison on sorted probes.
		for _, x := range probeVals {
			if x != x {
				continue
			}
			p := e.At(x)
			if p < 0 || p > 1 {
				return false
			}
			if !almostEqual(p+e.Survival(x), 1, 1e-12) {
				return false
			}
			_ = prev
		}
		// Explicit monotonicity along an increasing grid.
		last := 0.0
		for i := 0; i <= 20; i++ {
			x := -100.0 + float64(i)*10
			p := e.At(x)
			if p < last-1e-12 {
				return false
			}
			last = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestECDFTiedSamples pins At on heavily tied samples — interval lengths
// quantised to the sampling period look like this — against the linear
// definition (the fraction of the sample <= x), and Mean against the sum
// over the sorted sample.
func TestECDFTiedSamples(t *testing.T) {
	allEqual := make([]float64, 1000)
	halfTied := make([]float64, 1000)
	for i := range allEqual {
		allEqual[i] = 0.25
		halfTied[i] = 0.25
		if i%2 == 1 {
			halfTied[i] = float64(i) / 100
		}
	}
	tests := []struct {
		name   string
		sample []float64
		xs     []float64
	}{
		{"all-equal", allEqual, []float64{-1, 0, 0.25, 0.2500001, 1}},
		{"half-tied", halfTied, []float64{-1, 0.01, 0.24, 0.25, 0.26, 4.99, 5, 9.99, 20}},
	}
	for _, tt := range tests {
		e := NewECDF(tt.sample)
		for _, x := range tt.xs {
			atOrBelow := 0
			for _, v := range tt.sample {
				if v <= x {
					atOrBelow++
				}
			}
			want := float64(atOrBelow) / float64(len(tt.sample))
			if got := e.At(x); got != want {
				t.Errorf("%s: At(%v) = %v, want %v", tt.name, x, got, want)
			}
			if got := e.Survival(x); got != 1-want {
				t.Errorf("%s: Survival(%v) = %v, want %v", tt.name, x, got, 1-want)
			}
		}
		if got, want := e.Mean(), Mean(e.sorted); got != want {
			t.Errorf("%s: Mean() = %v, want %v (sum over the sorted sample)", tt.name, got, want)
		}
	}
}
