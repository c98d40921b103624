package predict

import (
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Predictor estimates future unavailability from a trained history.
//
// A training prefix is indexed once, as one TraceHistory, and shared:
// Evaluate and EvaluateBlocks train and score their predictors on a pool of
// goroutines that all read it. They rely on two things: Train only reads
// the history (it may keep a reference), and an instance is used by one
// goroutine at a time — its methods need no locking, but the same instance
// must not appear twice in one call's predictor list.
type Predictor interface {
	// Name identifies the predictor in evaluation reports.
	Name() string
	// Train fits the predictor to a shared, read-only history. It may be
	// called again to refit on a longer history.
	Train(h *TraceHistory)
	// PredictCount estimates the number of unavailability occurrences for
	// machine m in the window w.
	PredictCount(m trace.MachineID, w sim.Window) float64
	// PredictSurvival estimates the probability that no unavailability
	// overlaps w on machine m (a guest running through w survives).
	PredictSurvival(m trace.MachineID, w sim.Window) float64
}

// HistoryWindow is the paper's proposed predictor: the expected event count
// for a window is a robust average of the counts observed in the same
// clock window on previous days of the same type (weekday/weekend), and
// survival is the empirical fraction of those history days that were
// failure-free in the window.
type HistoryWindow struct {
	// Trim is the trimmed-mean fraction (0 = plain mean). The paper
	// suggests robust statistics to absorb irregular days.
	Trim float64

	src    History   // the trained trace; nil until Train
	counts []float64 // the reused history buffer
	memo   windowMemo
}

// Name implements Predictor.
func (h *HistoryWindow) Name() string {
	if h.Trim > 0 {
		return "history-window(trimmed)"
	}
	return "history-window"
}

// Train implements Predictor.
func (h *HistoryWindow) Train(th *TraceHistory) {
	h.src = th
	h.memo.reset()
}

// history walks src once and returns machine m's event count in the clock
// window matching w on every prior same-day-type day, in day order. A nil
// src or a machine outside src's fleet has no history at all.
func (h *HistoryWindow) history(src History, m trace.MachineID, w sim.Window) []float64 {
	counts := h.counts[:0]
	if known(src, m) {
		ForEachHistoryWindow(src.Calendar(), src.Span(), w, true, func(hw sim.Window) {
			counts = append(counts, float64(src.CountInWindow(m, hw)))
		})
	}
	h.counts = counts
	return counts
}

// trained is Estimate over the trained trace, memoized.
func (h *HistoryWindow) trained(m trace.MachineID, w sim.Window) (count, survival float64) {
	k := memoKey{m: m, w: w, param: math.Float64bits(h.Trim)}
	return h.memo.get(h.src, k, func() (float64, float64) {
		count, survival, _ := h.Estimate(h.src, m, w)
		return count, survival
	})
}

// count is the expected event count: the (trimmed) mean of the history,
// 0 when there is none.
func (h *HistoryWindow) count(counts []float64) float64 {
	switch {
	case len(counts) == 0:
		return 0
	case h.Trim > 0:
		return stats.TrimmedMean(counts, h.Trim)
	}
	return stats.Mean(counts)
}

// survival is the Laplace-smoothed fraction of failure-free history
// windows, and the 0.5 no-information prior — never NaN — when there is no
// history.
func (h *HistoryWindow) survival(counts []float64) float64 {
	if len(counts) == 0 {
		return 0.5
	}
	free := 0
	for _, c := range counts {
		if c == 0 {
			free++
		}
	}
	return stats.Clamp01((float64(free) + 1) / (float64(len(counts)) + 2))
}

// Estimate is the estimator over any History: one walk of src answers the
// expected event count of machine m in w, the survival probability, and
// the number of history windows behind them (0 = the no-information
// answers 0 and 0.5). forecast.Online serves its ring through it; the
// Predictor methods below are the same maths over the trained trace.
func (h *HistoryWindow) Estimate(src History, m trace.MachineID, w sim.Window) (count, survival float64, samples int) {
	counts := h.history(src, m, w)
	return h.count(counts), h.survival(counts), len(counts)
}

// PredictCount implements Predictor. An untrained predictor or a machine
// outside the trained fleet predicts 0 occurrences (no history to count).
func (h *HistoryWindow) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _ := h.trained(m, w)
	return count
}

// PredictSurvival implements Predictor. An untrained predictor, or a machine
// outside the trained fleet or with no prior same-type day, answers 0.5.
func (h *HistoryWindow) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival := h.trained(m, w)
	return survival
}

// GlobalRate is the uninformed baseline: a single Poisson rate per machine
// fitted over the whole history, ignoring time of day entirely.
type GlobalRate struct {
	rates map[trace.MachineID]float64 // events per hour
}

// Name implements Predictor.
func (g *GlobalRate) Name() string { return "global-rate" }

// Train implements Predictor.
func (g *GlobalRate) Train(h *TraceHistory) {
	g.rates = make(map[trace.MachineID]float64)
	hours := h.Span().Duration().Hours()
	if hours <= 0 {
		return
	}
	for _, e := range h.Trace().Events {
		g.rates[e.Machine] += 1 / hours
	}
}

// PredictCount implements Predictor.
func (g *GlobalRate) PredictCount(m trace.MachineID, w sim.Window) float64 {
	return g.rates[m] * w.Duration().Hours()
}

// PredictSurvival implements Predictor.
func (g *GlobalRate) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	return math.Exp(-g.PredictCount(m, w))
}

// LastDay copies the count observed in the same clock window one day
// earlier (a naive persistence baseline). It reads only the training
// history: past the first test day the day before lies after the cut, so it
// answers count 0, survival 0.75.
type LastDay struct {
	src History
}

// Name implements Predictor.
func (l *LastDay) Name() string { return "last-day" }

// Train implements Predictor.
func (l *LastDay) Train(h *TraceHistory) { l.src = h }

// PredictCount implements Predictor.
func (l *LastDay) PredictCount(m trace.MachineID, w sim.Window) float64 {
	if l.src == nil {
		return 0
	}
	prev := sim.Window{Start: w.Start - sim.Day, End: w.End - sim.Day}
	if prev.Start < l.src.Span().Start {
		return 0
	}
	return float64(l.src.CountInWindow(m, prev))
}

// PredictSurvival implements Predictor.
func (l *LastDay) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	if l.PredictCount(m, w) > 0 {
		return 0.25
	}
	return 0.75
}

// ewmaAlpha is EWMADaily's smoothing factor.
const ewmaAlpha = 0.3

// EWMADaily exponentially weights the same-window counts of previous days
// (most recent day heaviest), without separating weekdays from weekends.
type EWMADaily struct {
	src  History
	memo windowMemo
}

// Name implements Predictor.
func (e *EWMADaily) Name() string { return "ewma-daily" }

// Train implements Predictor.
func (e *EWMADaily) Train(h *TraceHistory) {
	e.src = h
	e.memo.reset()
}

// Estimate is the estimator over any History (see HistoryWindow.Estimate):
// the smoothed same-window daily count of machine m and exp(-count) as its
// survival. When no fully observed prior day contributed — a nil src, a
// machine outside its fleet, or a window on the first day of the span, the
// cold-start cases — the count is a defined 0 and the survival the 0.5
// no-information prior rather than a spurious certainty (exp(-0) = 1).
func (e *EWMADaily) Estimate(src History, m trace.MachineID, w sim.Window) (count, survival float64) {
	if !known(src, m) {
		return 0, 0.5
	}
	acc := stats.NewEWMA(ewmaAlpha)
	ForEachHistoryWindow(src.Calendar(), src.Span(), w, false, func(hw sim.Window) {
		acc.Add(float64(src.CountInWindow(m, hw)))
	})
	if !acc.Initialized() {
		return 0, 0.5
	}
	return acc.Value(), stats.Clamp01(math.Exp(-acc.Value()))
}

// trained is Estimate over the trained trace, memoized.
func (e *EWMADaily) trained(m trace.MachineID, w sim.Window) (count, survival float64) {
	k := memoKey{m: m, w: w}
	return e.memo.get(e.src, k, func() (float64, float64) { return e.Estimate(e.src, m, w) })
}

// PredictCount implements Predictor.
func (e *EWMADaily) PredictCount(m trace.MachineID, w sim.Window) float64 {
	count, _ := e.trained(m, w)
	return count
}

// PredictSurvival implements Predictor.
func (e *EWMADaily) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	_, survival := e.trained(m, w)
	return survival
}

// SemiMarkov models availability as a renewal process: it fits the
// empirical distribution of availability-interval lengths per day type and
// predicts survival as the conditional probability that the current
// interval outlives the window, given its age. This is the classic
// availability model from the cluster literature the paper cites, included
// as a structurally different baseline.
type SemiMarkov struct {
	h     *TraceHistory
	ecdfs map[sim.DayType]*stats.ECDF
}

// Name implements Predictor.
func (s *SemiMarkov) Name() string { return "semi-markov" }

// Train implements Predictor.
func (s *SemiMarkov) Train(h *TraceHistory) {
	s.h = h
	weekday, weekend := h.Trace().IntervalECDFs()
	s.ecdfs = map[sim.DayType]*stats.ECDF{sim.Weekday: weekday, sim.Weekend: weekend}
}

// age returns how long machine m has been failure-free before t. With no
// prior event the interval is measured from the span start (the machine
// was first observed available); a query before the span start — where no
// observation exists at all — ages the interval 0, never negative, so the
// ECDF lookups downstream stay within the fitted support. An event ending
// exactly at the span start still counts as a prior event: the current
// interval began with that recovery, which coincides with — not precedes —
// the first observation, so the renewal clock restarts there too (the
// resulting age is the same either way; the >= keeps the semantics
// explicit rather than an accident of the subtraction).
func (s *SemiMarkov) age(m trace.MachineID, t sim.Time) time.Duration {
	age := t - s.h.Span().Start
	if end, ok := s.h.LastEndBefore(m, t); ok && end >= s.h.Span().Start {
		age = t - end
	}
	if age < 0 {
		age = 0
	}
	return age
}

// PredictSurvival implements Predictor.
func (s *SemiMarkov) PredictSurvival(m trace.MachineID, w sim.Window) float64 {
	if s.h == nil {
		return 0.5
	}
	ecdf := s.ecdfs[s.h.Calendar().DayType(w.Start)]
	if ecdf == nil || ecdf.N() == 0 {
		return 0.5
	}
	age := s.age(m, w.Start).Hours()
	sa := ecdf.Survival(age)
	if sa == 0 {
		// The current interval already outlived every trained interval
		// (common when predicting far past the training prefix); fall
		// back to the unconditional survival of a fresh interval.
		return stats.Clamp01(ecdf.Survival(w.Duration().Hours()))
	}
	// P(X > age+d | X > age).
	return stats.Clamp01(ecdf.Survival(age+w.Duration().Hours()) / sa)
}

// PredictCount implements Predictor.
func (s *SemiMarkov) PredictCount(m trace.MachineID, w sim.Window) float64 {
	if s.h == nil {
		return 0
	}
	ecdf := s.ecdfs[s.h.Calendar().DayType(w.Start)]
	if ecdf == nil || ecdf.N() == 0 || ecdf.Mean() <= 0 {
		return 0
	}
	// Renewal-rate approximation: one event per mean interval.
	return w.Duration().Hours() / ecdf.Mean()
}

// DefaultPredictors returns the evaluation lineup: the paper's predictor
// (plain and trimmed) plus every baseline.
func DefaultPredictors() []Predictor {
	return []Predictor{
		&HistoryWindow{},
		&HistoryWindow{Trim: 0.1},
		&GlobalRate{},
		&LastDay{},
		&EWMADaily{},
		&SemiMarkov{},
	}
}
