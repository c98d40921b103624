// Package predict implements the availability-prediction algorithms the
// paper motivates (Sections 5.3 and 6 list them as the goal of the trace
// study and as future work): given a history of unavailability events, a
// predictor estimates, for an arbitrary future time window on a machine,
// (a) how many unavailability occurrences to expect and (b) the probability
// that a guest job running through the window survives.
//
// The flagship predictor is HistoryWindow, the algorithm the paper sketches
// in Section 5.3: "predict resource availability over an arbitrary future
// time window ... using history data for the corresponding time windows
// from previous weekdays or weekends", with robust statistics ("one
// approach is to use statistics on history trace to alleviate the effects
// of irregular data") realized as a trimmed mean. Baselines — a global
// Poisson rate, last-day copying, an EWMA over days, and a semi-Markov
// renewal model over availability-interval lengths — calibrate how much of
// the predictability actually comes from the daily pattern.
//
// The same-window predictors (HistoryWindow, EWMADaily, LastDay) are
// written against the History interface; Train binds them to a recorded
// trace, and forecast.Online runs the same Estimate methods over its live
// ring, so the maths exists once.
//
// The evaluation harness replays a trace: predictors train on a prefix and
// are scored on count error (MAE/RMSE) and survival-probability quality
// (Brier score) over sliding windows of the test period.
package predict
