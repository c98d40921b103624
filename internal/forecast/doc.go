// Package forecast is the online availability predictor: the streaming
// counterpart of internal/predict that closes the loop the paper leaves as
// future work. Instead of batch-training on a recorded trace, an Online
// forecaster ingests per-machine event streams as they happen (the host
// runs the detector; the forecaster learns only what it found) — each
// update is O(1) into a bounded per-machine ring of event starts, the only
// per-machine table kept — and serves the same forecasts
// the offline predictors would produce had they been retrained on the full
// prefix at that instant.
//
// Equality with the offline predictors is not approximate: the estimator
// maths exists once, in internal/predict, written against predict.History,
// and Online is one of the two stores that implement it (the trained
// trace is the other) — PredictSurvival and ForecastWindow are
// predict.HistoryWindow.Estimate over the ring, and any other estimator
// written against predict.History (predict.EWMADaily) runs on it the same
// way. What can still differ is the
// store, so the differential harness (internal/check) replays every
// testbed seed's observation stream through a detector into an Online
// forecaster's event ingest and compares it with predictors batch-trained
// on the recorded trace and with an independent naive reference.
//
// Service wraps an Online forecaster for the control plane: it keys
// machines by the dense ID its caller assigns (a registry shard's node ID;
// a caller with only names goes through a name map in front), maps
// wall-clock digest stamps onto virtual time, and derives the event stream
// from the availability-state transitions heartbeat digests carry — how a
// shard serves `forecast` requests without ever seeing a recorded trace.
// It serves the one estimate its consumers read: the history-window
// Survival, with the Samples count that tells a forecast from the 0.5
// prior. Unregistering a node forgets its history: the ID's next holder
// starts cold.
//
// Memory per node, held by test (history, 48 B, is built on the first
// event): by name ≤ 76 heap bytes before it, ≤ 156 after one (61, 125
// measured over 50 000 names — TestServiceBytesPerNode); a forecasting
// shard, whose forecaster holds no names, ≤ 125 and ≤ 194 in all (120, 177
// over 20 000 digests — ishare.TestRegistryBytesPerNode). A start adds 8 B,
// to 32 KiB a ring.
package forecast
