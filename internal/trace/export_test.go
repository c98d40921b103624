package trace

// The oracle-backed tests live in package trace_test: they import
// internal/check for the reference implementations, and check imports this
// package. These aliases hand them the in-package fixtures.
var (
	RandomTrace = randomTrace
	MkEvent     = mkEvent
	Span        = span
)
