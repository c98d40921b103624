package predict

// The reference-backed tests live in package predict_test: they import
// internal/check for the naive estimators, and check imports this package.
var TestbedTrace = testbedTrace

// MaxPastMemo is the cap on a same-window predictor's past-window memo.
const MaxPastMemo = maxPastMemo

// PastMemoLen is how many past-window answers p's memo holds.
func PastMemoLen(p Predictor) int {
	switch p := p.(type) {
	case *HistoryWindow:
		return len(p.memo.past)
	case *EWMADaily:
		return len(p.memo.past)
	}
	return 0
}
