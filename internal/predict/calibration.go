package predict

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// WindowSensitivity evaluates one predictor across several window lengths.
// The paper derives the prediction window from a guest job's estimated
// execution time, so a deployable predictor must stay useful from
// hour-scale to day-scale windows.
func WindowSensitivity(tr *trace.Trace, mk func() Predictor, windows []time.Duration, cfg EvalConfig) ([]Score, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("predict: window sensitivity needs at least one window")
	}
	// Every window has the same cut: one truth and one history serve all.
	truth := NewTraceHistory(tr)
	var history *TraceHistory
	var out []Score
	for _, w := range windows {
		c := cfg
		c.Window = w
		c.Stride = 0 // re-derive from the window
		ts, err := newTestSet(tr.Span, tr.Machines, truth, c)
		if err != nil {
			return nil, err
		}
		if history == nil {
			history = NewTraceHistory(tr.Before(ts.cut))
		}
		s := ts.evaluate(history, []Predictor{mk()}).Scores[0]
		s.Name = fmt.Sprintf("%s@%s", s.Name, w)
		out = append(out, s)
	}
	return out, nil
}

// FormatWindowSensitivity renders the sweep.
func FormatWindowSensitivity(scores []Score) string {
	var b strings.Builder
	b.WriteString("Window sensitivity — accuracy vs prediction-window length\n")
	fmt.Fprintf(&b, "%-36s %8s %8s %8s %8s\n", "predictor@window", "MAE", "RMSE", "Brier", "windows")
	for _, s := range scores {
		fmt.Fprintf(&b, "%-36s %8.3f %8.3f %8.3f %8d\n", s.Name, s.MAE, s.RMSE, s.Brier, s.Windows)
	}
	return b.String()
}

// CalibrationBin is one decile of a reliability diagram.
type CalibrationBin struct {
	// Lo and Hi bound the predicted failure probability.
	Lo, Hi float64
	// Predicted is the mean predicted probability in the bin.
	Predicted float64
	// Observed is the empirical failure frequency in the bin.
	Observed float64
	// Count is the number of test windows in the bin.
	Count int
}

// Calibration builds a reliability diagram for a predictor's
// failure-probability forecasts over the trace's test period: within each
// predicted-probability bin, a calibrated predictor's observed failure
// frequency matches the bin's mean prediction.
func Calibration(tr *trace.Trace, p Predictor, cfg EvalConfig, bins int) ([]CalibrationBin, error) {
	ts, err := newTestSet(tr.Span, tr.Machines, NewTraceHistory(tr), cfg)
	if err != nil {
		return nil, err
	}
	if bins <= 0 {
		bins = 10
	}
	p.Train(NewTraceHistory(tr.Before(ts.cut)))

	sums := make([]float64, bins)
	hits := make([]int, bins)
	counts := make([]int, bins)
	for i, w := range ts.windows {
		prob := stats.Clamp01(1 - p.PredictSurvival(ts.machines[i], w))
		if math.IsNaN(prob) {
			return nil, fmt.Errorf("predict: %s predicts a NaN survival for machine %d in window %v", p.Name(), ts.machines[i], w)
		}
		bin := min(int(prob*float64(bins)), bins-1)
		sums[bin] += prob
		counts[bin]++
		if ts.fail[i] {
			hits[bin]++
		}
	}
	out := make([]CalibrationBin, bins)
	for i := range out {
		out[i] = CalibrationBin{
			Lo:    float64(i) / float64(bins),
			Hi:    float64(i+1) / float64(bins),
			Count: counts[i],
		}
		if counts[i] > 0 {
			out[i].Predicted = sums[i] / float64(counts[i])
			out[i].Observed = float64(hits[i]) / float64(counts[i])
		}
	}
	return out, nil
}

// CalibrationError returns the expected calibration error (ECE): the
// count-weighted mean absolute gap between predicted and observed failure
// frequency.
func CalibrationError(bins []CalibrationBin) float64 {
	total := 0
	sum := 0.0
	for _, b := range bins {
		total += b.Count
		sum += float64(b.Count) * math.Abs(b.Predicted-b.Observed)
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// FormatCalibration renders the reliability diagram.
func FormatCalibration(bins []CalibrationBin) string {
	var b strings.Builder
	b.WriteString("Reliability diagram — predicted vs observed failure probability\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %8s\n", "bin", "predicted", "observed", "count")
	for _, bin := range bins {
		if bin.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%.1f, %.1f)     %10.3f %10.3f %8d\n",
			bin.Lo, bin.Hi, bin.Predicted, bin.Observed, bin.Count)
	}
	fmt.Fprintf(&b, "expected calibration error: %.3f\n", CalibrationError(bins))
	return b.String()
}
