// Package check is the correctness-verification harness for the five-state
// availability model, and it is test code only: this is its one non-test
// file. Its tests hold the optimized paths — detector, controller, testbed
// runner, trace codecs and indexes, analyzers, forecasters — to a naive
// reference of the paper's semantics and naive oracles of every analysis:
// TestDifferential (make check), the fixed-input tests and four fuzz targets.
//
// The reference trades every optimization for obviousness — it keeps the
// whole observation history and re-derives spike windows by scanning it —
// so a divergence always indicts the optimized code, not the oracle.
package check
