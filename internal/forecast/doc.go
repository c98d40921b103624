// Package forecast is the online availability predictor: the streaming
// counterpart of internal/predict that closes the loop the paper leaves as
// future work. Instead of batch-training on a recorded trace, an Online
// forecaster ingests per-machine observation (or event) streams as they
// happen — each update is O(1) into a bounded per-machine ring of event
// starts plus incremental hour-of-week statistics — and serves the same
// forecasts the offline predictors would produce had they been retrained
// on the full prefix at that instant.
//
// Equality with the offline predictors is not approximate: the estimator
// maths exists once, in internal/predict, written against predict.History,
// and Online is one of the two stores that implement it (the trained
// trace is the other) — PredictCount, PredictSurvival, EWMACount and
// EWMASurvival are predict.HistoryWindow.Estimate and
// predict.EWMADaily.Estimate over the ring. What can still differ is the
// store, so the differential harness (internal/check) replays every
// testbed seed's observation stream through an Online forecaster and
// compares it with predictors batch-trained on the recorded trace and with
// an independent naive reference.
//
// Service wraps an Online forecaster for the control plane: it keys
// machines by node name, maps wall-clock digest stamps onto virtual time,
// and derives the event stream from availability-state transitions carried
// by heartbeat digests — which is how a registry shard serves `forecast`
// requests without ever seeing a recorded trace.
package forecast
