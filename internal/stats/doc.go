// Package stats provides the statistical primitives the rest of the
// repository is built on: descriptive statistics, an exponentially
// weighted moving average, empirical CDFs, quantiles, robust means,
// per-hour binning with across-day ranges, and forecast-error metrics.
//
// The Go standard library has no statistics support, and this project is
// offline-only, so everything here is implemented from scratch. All
// functions are deterministic and allocate predictably; on the hot paths
// ECDF evaluation (At, Survival) is one binary search, O(log n) however
// many sample values tie, and the ECDF mean is an O(1) read.
package stats
