package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
// It is immutable once constructed and safe for concurrent readers.
//
// ECDF is the primitive behind the paper's Figure 6 (cumulative distribution
// of availability-interval lengths) and behind the semi-Markov survival
// predictor.
type ECDF struct {
	sorted []float64
	mean   float64 // Mean(sorted), summed once at construction
}

// NewECDF builds an ECDF from the sample. The input slice is copied; it may
// be empty, in which case all queries return 0.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s, mean: Mean(s)}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	// Index of the first element strictly greater than x: one binary
	// search however many sample values tie with x.
	i := sort.Search(n, func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(n)
}

// Survival returns P(X > x) == 1 - At(x).
func (e *ECDF) Survival(x float64) float64 { return 1 - e.At(x) }

// Mean returns the sample mean (0 for an empty sample), in O(1).
func (e *ECDF) Mean() float64 { return e.mean }

// MassBetween returns P(lo < X <= hi).
func (e *ECDF) MassBetween(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return e.At(hi) - e.At(lo)
}

// Sample maps a uniform draw u in [0,1) to a sample value by inverse
// transform: the i-th order statistic with i = floor(u*n). Drawing u from
// an independent uniform stream therefore resamples the empirical
// distribution exactly — the generative counterpart of At. An empty ECDF
// yields 0.
func (e *ECDF) Sample(u float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if u < 0 {
		u = 0
	}
	i := int(u * float64(n))
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

// KSDistance returns the Kolmogorov–Smirnov statistic between two ECDFs:
// the supremum of |F1(x) - F2(x)| over the pooled sample points. Both
// empty yields 0; exactly one empty yields 1.
func (e *ECDF) KSDistance(o *ECDF) float64 {
	if len(e.sorted) == 0 && len(o.sorted) == 0 {
		return 0
	}
	if len(e.sorted) == 0 || len(o.sorted) == 0 {
		return 1
	}
	// The sup of the difference of two right-continuous step functions is
	// attained at a jump point of one of them.
	max := 0.0
	for _, x := range e.sorted {
		if d := math.Abs(e.At(x) - o.At(x)); d > max {
			max = d
		}
	}
	for _, x := range o.sorted {
		if d := math.Abs(e.At(x) - o.At(x)); d > max {
			max = d
		}
	}
	return max
}
