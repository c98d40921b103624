// Package stats provides the statistical primitives the rest of the
// repository is built on: descriptive statistics, online (streaming)
// moments, empirical CDFs, histograms, quantiles, robust means, per-hour
// binning with across-day ranges, and forecast-error metrics.
//
// The Go standard library has no statistics support, and this project is
// offline-only, so everything here is implemented from scratch. All
// functions are deterministic and allocate predictably; on the hot paths
// ECDF evaluation (At, Survival) is one binary search, O(log n) however
// many sample values tie, and the ECDF mean and the online moments are
// O(1) reads.
package stats
