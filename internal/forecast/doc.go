// Package forecast is the online availability predictor: the streaming
// counterpart of internal/predict that closes the loop the paper leaves as
// future work. Instead of batch-training on a recorded trace, an Online
// forecaster ingests per-machine observation (or event) streams as they
// happen — each update is O(1) into a bounded per-machine ring of event
// starts, the only per-machine table kept — and serves the same forecasts
// the offline predictors would produce had they been retrained on the full
// prefix at that instant.
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
// requests without ever seeing a recorded trace. What it serves is the one
// estimate its consumers read: the history-window Survival, with the
// Samples count that tells a forecast from the 0.5 prior.
//
// Memory per node, stated and held by test: a node the Service has seen
// costs at most 176 heap bytes until its first event (141 measured over
// 50 000 names: the name, an id-map slot, a machineState with an empty ring
// and no detector — TestServiceBytesPerNode), and a forecasting registry
// shard at most 455 in all (364 measured over 20 000 batched digests —
// ishare.TestRegistryBytesPerNode). Only events grow a node: 8 bytes a
// start, to the ring's worst case of EventCapacity x 8 B = 32 KiB.
package forecast
