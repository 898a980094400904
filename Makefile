GO ?= go

.PHONY: build test vet lint race check fuzz difftest chaos wal bench-module bench bench-rounds bench-registry bench-dispatch bench-wal bench-swarm bench-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: vet and gofmt always, staticcheck when installed
# (the CI workflow installs it; locally it is optional). gofmt -l
# lists every unformatted file, so any output fails the target.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not found, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# Differential payment tests (fast O(n) engine vs the O(n^2) naive
# reference) under the race detector, plus the allocation guards, which
# need a non-race run because AllocsPerRun counts differ under the
# instrumented allocator. The registry lines also pin the shard layout:
# the batched-vs-serial and removed-id churn differentials, the seal
# copy's shard- and GOMAXPROCS-independence, coalesced-rebid accounting
# against a written-since-seal model, the 8-byte record size guard and
# the seal's memory guard (8 bytes per issued id, measured with
# TotalAlloc, so non-race too).
# The serving line pins run framing: the shared frame codec's
# Begin/Close/Next, encode/decode and the client's queue/flush/receive
# cycle at zero allocations, frames split at MaxPayload, a Reader over
# mixed single and run frames (malformed runs rejected), and the
# framing a client gets back — one response per frame for one request
# per frame, run frames for run frames. It also pins acknowledged runs:
# malformed acks refused both ways, which stretches of a batch fold
# into one ack, the ack metrics reconciled with what Recv returned,
# the opted-in client's ack bytes, and the differential that an
# opted-in client's Recv returns exactly what one without acks gets.
difftest:
	$(GO) test -race -run 'TestFast|TestFallback|TestEngine' -count=1 ./internal/mech
	$(GO) test -run 'TestCompensationBonusAllocsO1|TestEngineSteadyStateZeroAllocs' -count=1 ./internal/mech
	$(GO) test -race -run 'TestAliasDifferentialFrequencies|TestAccountingWorkerInvariance|TestAliasRebuildRaceClean' -count=1 ./internal/dispatch
	$(GO) test -run 'TestPickAllocFree' -count=1 ./internal/dispatch
	$(GO) test -race -run 'TestSwarmDifferentialVsReference|TestSwarmWorkerInvarianceBitwise' -count=1 ./internal/swarm
	$(GO) test -race -run 'TestForEachBlockSubstreamWorkerInvariance' -count=1 ./internal/parallel
	$(GO) test -run 'TestSwarmRoundAllocFree|TestSwarmChurnSteadyStateAllocFree' -count=1 ./internal/swarm
	$(GO) test -run 'TestSplitIntoAllocFree' -count=1 ./internal/numeric
	$(GO) test -race -run 'TestApplyBatchDifferential|TestApplyBatchIntraBatchDependency|TestCoalescedRebidAccounting|TestRemovedIDChurnDifferential|TestSealedAggregateIndependentOfShardCount' -count=1 ./internal/registry
	$(GO) test -run 'TestApplyBatchAllocFree|TestRecordLayout|TestSealAllocBound' -count=1 ./internal/registry
	$(GO) test -run 'TestFrameAllocFree|TestBatchDrainAllocFree|TestWireEncodeAllocFree|TestWireDecodeAllocFree|TestFramerSplitsAtMaxPayload|TestReaderRuns|TestReaderRejectsMalformedRun|TestSingleFrameClientGetsSingleFrames|TestRunClientGetsRunFrames|TestPipelineCycleAllocFree|TestAckDecodeErrors|TestAckShorter|TestAckFolding|TestAckMetricsReconcile|TestAckExpansion|TestAckOutOfOrder|TestAckClientGetsAcks|TestAckRunsInvisibleAboveRecv|TestAckConcurrentAdds' -count=1 ./internal/frame ./internal/server ./internal/wire ./internal/lbclient

# Durable-registry gate: the WAL differential suite under -race
# (recovery vs a live alloc.Stream across 32 seeds and shard counts,
# the kill-9 truncation fuzz at every byte offset of the log tail, the
# concurrent journal ordering tests for serial and ApplyBatch writers,
# the batched-vs-per-op byte-identical log differentials (through the
# registry, and at the writer with groups that cross the run cap, the
# group-commit threshold and a rotation), a log write failing
# mid-group stopping both paths at the same entry, exact append
# metrics, bitwise recovery of logs in the run-less LBWAL001 format and
# in the LBWAL002 format with LBSNAP01 sidecars, a CRC-valid record
# that does not decode refused as corruption, never truncated, an add
# of an id past what the log backs refused before the registry sizes
# its tables by it, a CRC-valid sidecar with impossible counts or a
# broken delta chain refused, with Open falling back to an older one,
# the delta-chain differential (every retained sidecar loads to its
# epoch's population, and recovery survives any one damaged sidecar),
# a failed sidecar write that leaves the journal running, and Open
# removing a crashed sidecar write's temp file), plus the append-path
# and ApplyBatch-with-WAL allocation guards, the snapshot-cadence
# seal's memory guards (delta and full sidecar) and the streamed full
# and delta snapshots' byte-identity pins against the reference
# encoder, which run without -race because allocation counts differ
# under the instrumented allocator.
wal:
	$(GO) test -race -run 'TestRecoveryMatchesLiveHistory|TestTruncationFuzzEveryTailOffset|TestConcurrentJournalRecovery|TestConcurrentBatchJournalRecovery|TestCompactionAndSnapshotFallback|TestBatchedLogByteIdentical|TestLargeGroupLogByteIdentical|TestFailedWriteMidGroup|TestWALMetricsExactUnderBatching|TestParentFormatLogRecovers|TestV2FormatLogRecovers|TestUndecodableRecordIsCorruption|TestReplayBoundsAddIDs|TestDecodeSnapshotRefusesImpossibleCounts|TestOpenFallsBackPastForgedSnapshot|TestDeltaChainRecovery|TestFailedSnapshotKeepsJournaling|TestOpenRemovesStaleSnapshotTemp' -count=1 ./internal/wal
	$(GO) test -run 'TestWALAppendAllocFree|TestApplyBatchWALAllocFree|TestSnapshotSealAllocBound|TestFullSidecarSealAllocBound|TestStreamedSnapshotMatchesReference|TestStreamedDeltaMatchesReference' -count=1 ./internal/wal

# The serving benchmark (bench/, its own module built against this one
# through a replace directive) compiles against the registry, wal and
# server APIs; vet and test it so an API change cannot silently break
# bash bench/run.sh.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -count=1 ./...

# The acceptance gate: static analysis, the differential payment tests
# under -race, the durable-registry suite, the benchmark module, then
# the full suite (chaos matrix included) under the race detector.
check: lint difftest wal bench-module race

fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzClassify -fuzztime=30s ./internal/supervise
	$(GO) test -run=^$$ -fuzz=FuzzControllerInvariants -fuzztime=30s ./internal/health
	$(GO) test -run=^$$ -fuzz=FuzzAliasTable -fuzztime=30s ./internal/dispatch
	$(GO) test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=30s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzRecoverSegment -fuzztime=30s ./internal/wal
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSnapshot -fuzztime=30s ./internal/wal

# Chaos gate: the supervise fault-plan matrix, the health controller's
# 32-seed replication suite (ejection budgets, zero false positives,
# replay-identical corrected epochs), and the lbserve -health demo
# under a crash+flap plan as an end-to-end smoke.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/supervise ./internal/health
	$(GO) run ./cmd/lbserve -health -plan 'crash=1,flap=3@8:0.75' -ticks 60 -fault-until 35

# Record the payment-engine and parallel-distribution baselines as
# stable JSON (commit BENCH_mech.json to track regressions).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMechPayments' -benchmem ./internal/mech > .bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkForEach' -benchmem ./internal/parallel >> .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_mech.json
	@rm -f .bench_raw.txt
	@cat BENCH_mech.json

# Record the round-engine throughput baseline (fresh engines vs pooled
# scratch, serial vs parallel) as stable JSON. Commit BENCH_rounds.json
# to track regressions; note the committed file also carries a
# RoundsBaseline entry measured on the pre-engine code, which a
# regeneration drops.
bench-rounds:
	$(GO) test -run '^$$' -bench 'BenchmarkRounds' -benchmem -benchtime 5x ./internal/rounds > .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_rounds.json
	@rm -f .bench_raw.txt
	@cat BENCH_rounds.json

# Record the concurrent-registry baseline (lock-free snapshot reads,
# mixed read/rebid worker sweep, epoch seal cost) as stable JSON.
# Commit BENCH_registry.json to track regressions; the workers sweep
# only shows scaling on a multi-core host.
bench-registry:
	$(GO) test -run '^$$' -bench 'BenchmarkRegistry' -benchmem ./internal/registry > .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_registry.json
	@rm -f .bench_raw.txt
	@cat BENCH_registry.json

# Record the per-job dispatch baseline (alias-table Pick vs the classic
# policies across a worker sweep, plus epoch rebuild cost) as stable
# JSON. Commit BENCH_dispatch.json to track regressions; the alias hot
# path must hold ≤ 20ns/op and 0 allocs/op at workers=1.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch' -benchmem ./internal/dispatch > .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_dispatch.json
	@rm -f .bench_raw.txt
	@cat BENCH_dispatch.json

# Record the WAL baseline (zero-alloc append throughput, per-op and in
# Mutations groups of 1 and 128, snapshot streaming, the 1M-agent seal
# with the WAL attached and its shard-lock hold p50/max, and full crash
# recovery of 1M- and 10M-record logs) as stable JSON. Commit
# BENCH_wal.json to track regressions. The append, snapshot and seal
# cases run five times and benchjson records their medians; the
# recovery benchmarks run once each because every iteration replays
# the whole log.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend|BenchmarkWALSnapshot|BenchmarkWALSeal' -benchmem -count 5 ./internal/wal > .bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWALRecover' -benchmem -benchtime 1x -timeout 20m ./internal/wal >> .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_wal.json
	@rm -f .bench_raw.txt
	@cat BENCH_wal.json

# Record the selfish-rebalancing baseline as stable JSON: steady-state
# round throughput at 10^6 and the 10^7-agent headline (which must
# hold 0 allocs/op at workers=1), the online-churn variant, and the
# convergence-vs-optimum table (rounds from the adversarial all-on-one
# start to within ε of the mechanism's x*, with tasks_moved_per_s and
# the cs/0506098 bound as custom metrics). benchjson -check then
# validates the committed file parses and records the machine spec.
bench-swarm:
	$(GO) test -run '^$$' -bench 'BenchmarkSwarmRound' -benchmem -benchtime 5x -timeout 30m ./internal/swarm > .bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSwarmConverge' -benchmem -benchtime 1x -timeout 30m ./internal/swarm >> .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_swarm.json
	@rm -f .bench_raw.txt
	$(GO) run ./cmd/benchjson -check BENCH_swarm.json
	@cat BENCH_swarm.json

# Record the networked-serving baseline as stable JSON: frame
# encode/decode (must hold 0 allocs/op), the server-side batch-drain
# hot path at 8k and 1M agents with and without the WAL attached (1M
# also cache-cold, whose untimed evictions make it the slow part, and
# cache-cold with the WAL's snapshot cadence on; 8k also answering a
# connection that opted in to acks), and
# the loopback pipelined headline at 1 and 2 connections (the ops/s
# custom metric must hold ≥ 1M pipelined bid ops/s). Every case runs
# five times and benchjson records the medians, since single runs on a
# small VM drift by tens of percent between spells.
# benchjson -check validates the committed file parses and records the
# machine spec.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkWireEncode|BenchmarkWireDecode' -benchmem -count 5 ./internal/wire > .bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 2s -count 5 -timeout 60m ./internal/server >> .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_serve.json
	@rm -f .bench_raw.txt
	$(GO) run ./cmd/benchjson -check BENCH_serve.json
	@cat BENCH_serve.json
