package predict

// The reference-backed tests live in package predict_test: they import
// internal/check for the naive estimators, and check imports this package.
var TestbedTrace = testbedTrace
