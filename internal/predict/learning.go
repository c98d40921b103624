package predict

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LearningPoint is one point of a history-length learning curve.
type LearningPoint struct {
	TrainDays int
	Score     Score
}

// LearningCurve measures how a predictor's accuracy evolves as its history
// grows, quantifying the paper's core observation that recent history is
// what makes availability predictable: if the daily pattern is real, a few
// same-type days of history should capture most of the signal, with little
// gained beyond a few weeks.
//
// All points are evaluated on the same test period (the trace after the
// largest training prefix) so the scores are directly comparable.
func LearningCurve(tr *trace.Trace, mk func() Predictor, trainDays []int, cfg EvalConfig) ([]LearningPoint, error) {
	if len(trainDays) == 0 {
		return nil, fmt.Errorf("predict: learning curve needs at least one training length")
	}
	cfg.TrainDays = 0 // the shared test period starts after the longest prefix
	for _, d := range trainDays {
		if d <= 0 {
			return nil, fmt.Errorf("predict: non-positive training length %d", d)
		}
		cfg.TrainDays = max(cfg.TrainDays, d)
	}
	ts, err := newTestSet(tr.Span, tr.Machines, tr.BuildIndex(), cfg)
	if err != nil {
		return nil, err
	}

	var out []LearningPoint
	scratch := ts.scratch()
	for _, days := range trainDays {
		p := mk()
		// Train only on the last `days` days before the shared test start,
		// so every point predicts the same future from a window of the
		// recent past (the paper's "recent history").
		histStart := ts.cut - sim.Time(days)*sim.Day
		hist := tr.Filter(func(e trace.Event) bool {
			return e.Start >= histStart && e.Start < ts.cut
		})
		hist.Span = sim.Window{Start: histStart, End: ts.cut}
		p.Train(NewTraceHistory(hist))
		out = append(out, LearningPoint{TrainDays: days, Score: ts.score(p, scratch)})
	}
	return out, nil
}

// FormatLearningCurve renders the curve.
func FormatLearningCurve(points []LearningPoint) string {
	var b strings.Builder
	b.WriteString("Learning curve — accuracy vs history length\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "train-days", "MAE", "RMSE", "Brier")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %8.3f %8.3f %8.3f\n", p.TrainDays, p.Score.MAE, p.Score.RMSE, p.Score.Brier)
	}
	return b.String()
}
