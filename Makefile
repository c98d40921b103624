GO ?= go

.PHONY: all vet build bench-build test race check fuzz-smoke chaos-smoke chaos-crash-soak loadtest-smoke forecast-smoke markov-smoke bench-smoke bench-parallel metrics-smoke loc ci

all: ci

# gofmt walks directories, not modules, so one pass covers bench/ too; a
# file it names fails the target.
vet:
	$(GO) vet ./...
	@bad=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$bad" ]; then echo "gofmt -l names:"; echo "$$bad"; exit 1; fi; \
	echo "gofmt -l: no file named (root module and bench/)"

build:
	$(GO) build ./...

# bench/ is its own module (replace repro => ../), so the root build and
# tests never compile it: vet and test it here, or a change to the API it
# uses goes unnoticed until the benchmark runs. Under 10 s.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# Race-check every internal package. The ones with concurrent hot paths are
# the iShare network layer and its servers, the chaos fault injector, and
# par, the one worker pool, with every package that runs a stage on it —
# the block scan (trace), the testbed runner, the contention sweeps (whose
# calibration cache is shared across workers), fit and generate (markov),
# predictor scoring (reading stats.ECDF concurrently), the load driver, the
# detector and differential harness that drive the runner in parallel, and
# the monitor's detection engine, which a node's handler goroutines drive;
# the rest are covered so a goroutine added to one is checked from the start.
race:
	$(GO) test -race ./internal/...

# Differential correctness gate, a test: TestDifferential replays 200
# randomized seeds through the naive reference model and the optimized
# detector/controller/testbed/analyzer/forecast paths, which must agree
# exactly, and asserts how much ground the sweep covered (its nine counts,
# printed with -v; see internal/check).
check:
	$(GO) test -count 1 -run '^TestDifferential$$' -v ./internal/check/

# Short native-fuzz smokes over the committed corpus plus a few seconds of
# newly generated input; longer sessions just raise -fuzztime. The target
# fed whole files caps minimization at 10 runs a find: at the default 60 s
# the engine spends the smoke shrinking its first 2 KB find (9 runs in 20 s,
# against 10 000 a second mutating).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDetectorObserve' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzCodecRoundTrip' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexQueries' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzColBlockRoundTrip' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzBlockFileBytes' -fuzztime 5s -fuzzminimizetime 10x ./internal/trace/
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolDecode' -fuzztime 5s ./internal/ishare/
	$(GO) test -run '^$$' -fuzz 'FuzzWireCodec' -fuzztime 5s ./internal/ishare/
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 5s ./internal/ishare/

# Deterministic-seed chaos smoke: scripted partition + refusal burst over a
# live registry and nodes, asserting exactly-once completion; plus the two
# submit-failover paths: a dropped response retried on the same node, and a
# dead node still listed within the registry TTL (discovery never dials
# nodes, so submit failover is what moves past it).
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke|TestMidStreamDropTriggersDedupSafeRetry' -count 1 ./internal/chaos/
	$(GO) test -race -run 'TestSubmitBestFailsOverFromDeadListedNode' -count 1 ./internal/ishare/

# Crash-recovery soak: 50 fixed-seed randomized schedules of shard and
# broker kills at virtual times (with fsync latency and clock skew on some
# seeds), asserting under -race that no acked registration is lost and
# that exactly-once submission holds through shard death.
chaos-crash-soak:
	$(GO) test -race -run 'TestCrashSoak' -count 1 ./internal/chaos/

# Control-plane smoke: a 10k-node synthetic fleet over 2 registry shards,
# batched registration, churned heartbeats, ranked fan-out discovery, the
# same discovery with shard 0 chaos-partitioned, then a crash-restart
# phase (shard killed and WAL-recovered under load) — gated on the smoke
# SLOs including recovery < 2 s, and on the crash window's breaker counts
# (opened once, dead shard skipped thereafter; exits nonzero on violation).
loadtest-smoke:
	$(GO) run ./cmd/fgcs-loadtest -smoke

# Forecast-driven scheduling smoke: the fixed-seed replay evaluation, the
# e23-forecast-replay artefact row (its golden, and proactive
# checkpoint/migrate must waste >= 10% less guest CPU than the reactive
# baseline at equal-or-better throughput), plus the differential, whose
# forecast leg pins the incremental forecaster's ring, the batch-trained
# predictors and the naive reference equal (1e-9) on every testbed seed.
forecast-smoke:
	$(GO) test -run '^TestArtefacts$$/^e23-forecast-replay$$' -count 1 .
	$(GO) test -run '^TestDifferential$$' -count 1 ./internal/check/

# Generative-model smoke: the fit -> generate -> refit round trip on its
# three fixed seeds (transition rates and interval ECDFs must be recovered
# within the E24 tolerances) plus the scenario legality and stream
# differential on two fixed seeds (the stream differential holds the
# analyzer to the naive oracles, so it lives in internal/check).
markov-smoke:
	$(GO) test -count 1 -run 'TestFitGenerateRefitRoundTrip|TestScenarioTracesAreLegal|TestScenarioStreamDifferential' ./internal/markov/ ./internal/check/

# A short benchmark pass that exercises the performance-critical paths
# without producing stable numbers; full runs go through bash bench/run.sh.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunMachineWeek|BenchmarkTickSixProcesses|BenchmarkDetectorObserve' -benchtime 10x ./internal/testbed/ ./internal/simos/ ./internal/availability/
	$(GO) test -run '^$$' -bench 'BenchmarkRunFullTestbed|BenchmarkRunShardedFleet|BenchmarkWriteBinary|BenchmarkStreamAnalyzer|BenchmarkEvaluateHistoryWindow|BenchmarkScore' -benchtime 1x ./internal/testbed/ ./internal/trace/ ./internal/predict/
	$(GO) test -run '^$$' -bench 'BenchmarkWireHeartbeatBatch|BenchmarkWireReply|BenchmarkWireFormatLoad|BenchmarkRegistryHeartbeatBatch|BenchmarkHandleRegisterBatch|BenchmarkListRanked|BenchmarkCandidates' -benchtime 10x -benchmem ./internal/ishare/
	$(GO) test -run '^$$' -bench 'BenchmarkWriteBlocks|BenchmarkDecodeBlock|BenchmarkCollectEvents|BenchmarkAnalyzeBlockFiles|BenchmarkBlockIndexFirstTouch|BenchmarkBlockIndexQueryMix|BenchmarkFit|BenchmarkGenerate' -benchtime 10x -benchmem ./internal/trace/ ./internal/markov/

# Serial == parallel under the race detector: par.For's contract, then each
# stage on it — the block scanner (and its refusal of truncated shards), its
# merge associativity, whole-file decode (every cut of a salvaged file, two
# broken blocks), one point index shared by 1, 4 and 8 readers over a trace
# and over block files, and the evaluation whose truth pass shares one, the
# testbed at 1 and 4 workers, the sharded v2 encoder round-trip and the
# streaming runner's sink contract, waiting-machine bound and stop on a
# sink error, the model fit and generate, and contention Figures 1(a) and
# 4 at GOMAXPROCS 1 and 4 — all on small fixed-seed inputs, each equal to
# its serial run; then the paper's artefact goldens at one and four workers
# (no -race: the legs above race-check the same stages).
bench-parallel:
	$(GO) test -race -count 1 ./internal/par/
	$(GO) test -race -count 1 -run 'TestAnalyzeBlock|TestMergeFrom|TestBlockIndexMatchesIndex|TestBlockFileSalvagesTruncation' ./internal/trace/
	$(GO) test -race -count 1 -run 'TestEvaluateBlocksMatchesEvaluate' ./internal/predict/
	$(GO) test -race -count 1 -run 'TestRunDeterminism|TestEncoderSinkV2RoundTrip|TestRunShardedSinkIsSerialAndOrdered|TestRunShardedBoundsWaitingMachines|TestRunShardedPropagatesSinkError' ./internal/testbed/
	$(GO) test -race -count 1 -run 'TestGenerateDeterministic|TestFitMatchesPerMachineScans' ./internal/markov/
	$(GO) test -race -count 1 -run 'TestFiguresSerialEqualsParallel' ./internal/contention/
	GOMAXPROCS=1 $(GO) test -count 1 -run TestArtefacts .
	GOMAXPROCS=4 $(GO) test -count 1 -run TestArtefacts .

# Metrics-endpoint smoke: start ishared with an ephemeral metrics port,
# scrape /healthz and /metrics, assert the expected families are served.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Non-test Go lines per package directory and in total, excluding the
# frozen bench/ module: the before/after figure simplicity PRs report.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

ci: vet build bench-build test race check fuzz-smoke chaos-smoke chaos-crash-soak loadtest-smoke forecast-smoke markov-smoke bench-smoke bench-parallel metrics-smoke loc
