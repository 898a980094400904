GO ?= go

.PHONY: build test vet lint race check fuzz difftest chaos wal bench-module bench bench-rounds bench-registry bench-dispatch bench-wal bench-swarm bench-serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: vet always, staticcheck when installed (the CI
# workflow installs it; locally it is optional).
lint: vet
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
# instrumented allocator.
difftest:
	$(GO) test -race -run 'TestFast|TestFallback|TestEngine' -count=1 ./internal/mech
	$(GO) test -run 'TestCompensationBonusAllocsO1|TestEngineSteadyStateZeroAllocs' -count=1 ./internal/mech
	$(GO) test -race -run 'TestAliasDifferentialFrequencies|TestAccountingWorkerInvariance|TestAliasRebuildRaceClean' -count=1 ./internal/dispatch
	$(GO) test -run 'TestPickAllocFree' -count=1 ./internal/dispatch
	$(GO) test -race -run 'TestSwarmDifferentialVsReference|TestSwarmWorkerInvarianceBitwise' -count=1 ./internal/swarm
	$(GO) test -race -run 'TestForEachBlockSubstreamWorkerInvariance' -count=1 ./internal/parallel
	$(GO) test -run 'TestSwarmRoundAllocFree|TestSwarmChurnSteadyStateAllocFree' -count=1 ./internal/swarm
	$(GO) test -run 'TestSplitIntoAllocFree' -count=1 ./internal/numeric
	$(GO) test -race -run 'TestApplyBatchDifferential|TestApplyBatchIntraBatchDependency' -count=1 ./internal/registry
	$(GO) test -run 'TestApplyBatchAllocFree' -count=1 ./internal/registry
	$(GO) test -run 'TestBatchDrainAllocFree|TestWireEncodeAllocFree|TestWireDecodeAllocFree' -count=1 ./internal/server ./internal/wire

# Durable-registry gate: the WAL differential suite under -race
# (recovery vs a live alloc.Stream across 32 seeds and shard counts,
# the kill-9 truncation fuzz at every byte offset of the log tail, the
# concurrent journal ordering tests for serial and ApplyBatch writers,
# the batched-vs-per-op byte-identical log differential, exact append
# metrics), plus the append-path and ApplyBatch-with-WAL allocation
# guards, which need a non-race run because AllocsPerRun counts differ
# under the instrumented allocator.
wal:
	$(GO) test -race -run 'TestRecoveryMatchesLiveHistory|TestTruncationFuzzEveryTailOffset|TestConcurrentJournalRecovery|TestConcurrentBatchJournalRecovery|TestCompactionAndSnapshotFallback|TestBatchedLogByteIdentical|TestWALMetricsExactUnderBatching' -count=1 ./internal/wal
	$(GO) test -run 'TestWALAppendAllocFree|TestApplyBatchWALAllocFree' -count=1 ./internal/wal

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

# Record the WAL baseline (zero-alloc append throughput, snapshot
# serialization, and full crash recovery of 1M- and 10M-record logs) as
# stable JSON. Commit BENCH_wal.json to track regressions; the recovery
# benchmarks run once each because every iteration replays the whole
# log.
bench-wal:
	$(GO) test -run '^$$' -bench 'BenchmarkWALAppend|BenchmarkWALSnapshot' -benchmem ./internal/wal > .bench_raw.txt
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
# hot path at 8k and 1M agents with and without the WAL attached, and
# the loopback pipelined headline at 1 and 2 connections (the ops/s
# custom metric must hold ≥ 1M pipelined bid ops/s).
# benchjson -check validates the committed file parses and records the
# machine spec.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkWireEncode|BenchmarkWireDecode' -benchmem ./internal/wire > .bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 2s -timeout 20m ./internal/server >> .bench_raw.txt
	$(GO) run ./cmd/benchjson < .bench_raw.txt > BENCH_serve.json
	@rm -f .bench_raw.txt
	$(GO) run ./cmd/benchjson -check BENCH_serve.json
	@cat BENCH_serve.json
