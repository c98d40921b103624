package predict

// The reference-backed tests live in package predict_test: they import
// internal/check for the naive estimators, and check imports this package.
var TestbedTrace = testbedTrace

// MaxPastMemo and MaxMachineMemo are the caps on a same-window predictor's
// past-window memo: in all, and for one machine.
const (
	MaxPastMemo    = maxPastMemo
	MaxMachineMemo = maxMachineMemo
)

// PastMemoLen is how many past-window answers p's memo holds.
func PastMemoLen(p Predictor) int {
	switch p := p.(type) {
	case *HistoryWindow:
		return p.memo.n
	case *EWMADaily:
		return p.memo.n
	}
	return 0
}
