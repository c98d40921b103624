package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Median returns the sample median, or 0 for an empty slice.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th sample quantile of xs, q in [0,1], using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns 0 for an empty slice, and clamps q into [0,1].
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TrimmedMean returns the mean of xs after discarding the lowest and highest
// trim fraction of the sorted sample (e.g. trim=0.1 removes 10% from each
// tail). The paper (Section 5.3) suggests robust statistics over the history
// windows to "alleviate the effects of irregular data"; this is the robust
// estimator the history-window predictor uses. trim is clamped to [0, 0.5).
// An empty sample yields 0.
func TrimmedMean(xs []float64, trim float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if trim < 0 {
		trim = 0
	}
	if trim >= 0.5 {
		trim = 0.4999
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	k := int(math.Floor(trim * float64(n)))
	kept := sorted[k : n-k]
	return Mean(kept)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 if the slices differ in length, are shorter than 2, or either
// has zero variance.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// AutoCorrelation returns the sample autocorrelation of xs at the given
// lag: the Pearson correlation between the series and itself shifted by
// lag. It returns 0 for invalid lags or constant series. The trace
// analysis uses it to quantify the paper's central observation that the
// failure-rate series repeats with daily and weekly periods.
func AutoCorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || lag >= n {
		return 0
	}
	return Pearson(xs[:n-lag], xs[lag:])
}
