GO ?= go
BENCH_OUT ?= bench_results.txt
SCALING_OUT ?= bench_scaling.txt
TELEMETRY_OUT ?= bench_telemetry.txt
REPLAY_OUT ?= bench_replay.txt
FRAMES_OUT ?= bench_frames.txt
TRACE_OUT ?= bench_trace.txt

# Hot-path benchmarks whose numbers back the concurrency claims in
# DESIGN.md. -cpu 1,4 shows the parallel path's scaling; -count=5 gives
# benchstat enough samples.
HOT_BENCH = BenchmarkPipelinePerPacket|BenchmarkProcessBatch|BenchmarkProcessParallel$$|BenchmarkCMUProcess|BenchmarkRegisterExecute

# The register-mode scaling suite: shared-CAS vs sharded-lane ProcessParallel
# on the heavy-hitter workload, plus the lane-drain cost.
SCALING_BENCH = BenchmarkProcessParallelModes|BenchmarkShardDrain

.PHONY: all check vet build test race race-concurrency chaos chaos-liveness bench bench-allocs \
	bench-full bench-scaling bench-smoke bench-telemetry bench-telemetry-smoke \
	bench-replay bench-replay-smoke bench-frames bench-frames-smoke \
	bench-trace bench-trace-smoke vet-merge bench-compare clean

all: check

check: vet build race chaos chaos-liveness vet-merge bench-smoke bench-telemetry-smoke \
	bench-replay-smoke bench-frames-smoke bench-trace-smoke bench-allocs
	$(GO) test -C bench ./...

# chaos runs the control-channel fault-injection suite under -race: the
# faultnet transport tests, the resilient-client recovery paths (timeouts,
# resets, corrupt frames, desync, breaker), codec framing robustness, and
# the degraded-mode fleet tests. The fault plans use a fixed seed matrix
# (seeds 1..3 inside TestChaosSeedMatrix plus per-test seeds), so failures
# reproduce deterministically.
chaos:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'Chaos|Fault|Breaker|Hung|Panic|Dispatch|Codec|Client|Reset|Corrupt|Truncat|Partial|Deterministic|Listener|Delays|ZeroPlan|TestFleet(Partial|Strict|Remove|OpTimeout|Deploy)' \
		./internal/faultnet/ ./internal/rpc/ ./internal/netwide/

# chaos-liveness runs the fast-failure fleet drills under -race: the pure
# BFD-style session state machine, the liveness + reconciler end-to-end
# drills (kill / restart / redeploy), the seeded fault matrix
# (partition / asymmetric one-way partition / restart storm / flapping
# link, seeds 1..3 via faultnet.Gate), the rpc client-vs-restarted-server
# breaker path, and the directional-blackhole Gate semantics. Every drill
# ends behind a goroutine-leak gate.
chaos-liveness:
	$(GO) test -race -count=1 -timeout 600s \
		-run 'SessionSM|Liveness|Reconcil|Hello|Restart|Gate|Incarnation' \
		./internal/faultnet/ ./internal/rpc/ ./internal/netwide/

# race-concurrency is the focused -race run over the parallel-path tests
# (snapshot fan-out, worker pool, controller reconfiguration under load);
# `race` runs everything, this one is the quick pre-commit gate.
race-concurrency:
	$(GO) test -race -count=1 -run 'Parallel|Pool|Concurrent|Snapshot|Reconfig' ./internal/core/ ./internal/controlplane/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the hot-path microbenchmarks at 1 and 4 cores and saves the
# output for benchstat comparison against a previous run:
#   make bench BENCH_OUT=old.txt   # before a change
#   make bench BENCH_OUT=new.txt   # after
#   benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench '$(HOT_BENCH)' -count=5 -cpu 1,4 -benchmem . | tee $(BENCH_OUT)

# bench-allocs runs the alloc-regression gates: the compiled hot path must
# stay at zero heap allocations per packet, and the mmap replay path must
# stay at zero allocations per batch once steady (TestReplayerNextZeroAlloc).
bench-allocs:
	$(GO) test -count=1 -run 'ZeroAlloc' -v ./internal/core/ ./internal/hashing/ \
		./internal/mmtrace/ ./internal/controlplane/

# bench-scaling runs the register-mode scaling suite across core counts
# with the fixed trace seed baked into bench_test.go: 5 samples per mode
# per -cpu so the benchcmp medians are robust to scheduler noise. The
# trailing benchcmp pass prints the shared-CAS → sharded delta per cpu
# count (negative = sharded faster); bench_scaling.txt is the committed
# artifact backing the scaling table in README.md.
bench-scaling:
	$(GO) test -run '^$$' -bench '$(SCALING_BENCH)' -count=5 -cpu 1,2,4 -benchmem -timeout 0 . | tee $(SCALING_OUT)
	$(GO) run ./cmd/benchcmp -pair 'mode=shared-cas:mode=sharded' $(SCALING_OUT)

# bench-smoke is the check-gate pass over the scaling suite: one short run
# to catch bit-rot in the mode benchmarks (a sharded-routing regression
# shows up here as a compile error or a panic, not a slow number).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SCALING_BENCH)' -benchtime 64x -cpu 2 .

# bench-telemetry proves the telemetry plane's hot-path overhead budget:
# the telemetry=on pipeline must stay at 0 allocs/op and within 3% of
# telemetry=off by median ns/op. bench_telemetry.txt is the committed
# artifact; the benchcmp pass prints the off → on delta.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineTelemetry' -count=5 -cpu 1 -benchmem . | tee $(TELEMETRY_OUT)
	$(GO) run ./cmd/benchcmp -pair 'telemetry=off:telemetry=on' $(TELEMETRY_OUT)

# bench-telemetry-smoke is the check-gate pass: a short run that fails on
# any allocation in the telemetry=on hot path (bit-rot catches, not
# timing), plus the same benchcmp plumbing.
bench-telemetry-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineTelemetry' -benchtime 4096x -cpu 1 -benchmem . | \
		awk '/telemetry=on/ && $$(NF-1) != 0 { print "telemetry=on allocates:", $$0; bad = 1 } { print } END { exit bad }'

# bench-replay measures sustained trace-ingestion throughput on a
# 10M-packet trace: the seed reader path vs streaming ReadBatch vs the
# zero-copy mmap+ring path, at pure ingest and under the 9-task load.
# 5 samples per variant; the benchcmp pass prints the reader → mmap delta
# per task load (negative = mmap faster). bench_replay.txt is the committed
# artifact backing the ingestion numbers in DESIGN.md §14.
bench-replay:
	FLYMON_REPLAY_PACKETS=10000000 FLYMON_REPLAY_WARM=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkReplayIngest' -count=5 -cpu 1 -benchmem -timeout 0 . | tee $(REPLAY_OUT)
	$(GO) run ./cmd/benchcmp -pair 'engine=reader:engine=mmap' $(REPLAY_OUT)

# bench-replay-smoke is the check-gate pass: one pass over a 50k-packet
# trace per engine to catch bit-rot in the replay harness (a broken engine
# shows up as an error or a packet-count mismatch, not a slow number).
bench-replay-smoke:
	FLYMON_REPLAY_PACKETS=50000 $(GO) test -run '^$$' -bench 'BenchmarkReplayIngest' \
		-benchtime 1x -cpu 1 .

# bench-frames measures the FrameView-native compiled engine against the
# packet-decoding mmap path on the 10M-packet trace: 5 samples per variant,
# page cache pre-warmed (FLYMON_REPLAY_WARM). The benchcmp pass prints the
# mmap → frames delta per task load (negative = frames faster);
# bench_frames.txt is the committed artifact backing DESIGN.md §15 and the
# tentpole's >= 2x tasks=9 claim.
bench-frames:
	FLYMON_REPLAY_PACKETS=10000000 FLYMON_REPLAY_WARM=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkReplayIngest/engine=(mmap|frames)' -count=5 -cpu 1 -benchmem \
		-timeout 0 . | tee $(FRAMES_OUT)
	$(GO) run ./cmd/benchcmp -pair 'engine=mmap:engine=frames' $(FRAMES_OUT)

# bench-frames-smoke is the check-gate pass: one short frames-engine run to
# catch bit-rot in the vectorized path (a broken engine shows up as an
# error or packet-count mismatch, not a slow number).
bench-frames-smoke:
	FLYMON_REPLAY_PACKETS=50000 $(GO) test -run '^$$' \
		-bench 'BenchmarkReplayIngest/engine=frames' -benchtime 1x -cpu 1 .

# vet-merge is the merge-tree correctness gate: go vet plus the -race
# stress pass over the streaming k-ary reduction and the epoch-coherent
# query plane (bit-identity vs the sequential oracle, straggler chaos
# matrix, goroutine-leak gates); 'Epoch' also selects the artifact
# store's TestEpochArtifact* suite.
vet-merge:
	$(GO) vet ./internal/netwide/ ./internal/sketch/ ./internal/rpc/ ./internal/tracing/
	$(GO) test -race -count=1 -timeout 600s -run 'MergeStream|Epoch|EnginesBitIdentical' \
		./internal/netwide/

# bench-trace proves the tracing plane's control-op overhead budget: a
# traced control op (root span + client rpc span + daemon dispatch span)
# must stay within 3% of the untraced baseline by median ns/op, enforced
# on the benchcmp delta; tracing=armed (tracers attached, op untraced)
# shows the cost of the nil/validity checks alone. bench_trace.txt is the
# committed artifact. The data-plane hot path needs no pair here: nothing
# under internal/core or internal/controlplane imports tracing, so the
# per-packet path is structurally unchanged (bench-telemetry covers it).
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkControlOpTrace' -count=5 -cpu 1 -benchmem . | tee $(TRACE_OUT)
	$(GO) run ./cmd/benchcmp -pair 'tracing=off:tracing=armed' $(TRACE_OUT)
	$(GO) run ./cmd/benchcmp -pair 'tracing=off:tracing=on' $(TRACE_OUT) | \
		awk 'NR>1 { d=$$NF; sub(/%/,"",d); if (d+0 > 3) { print "traced control op over 3% budget:", $$0; bad=1 } } { print } END { exit bad }'

# bench-trace-smoke is the check-gate pass: a short run over all three
# variants to catch bit-rot in the traced control-op path (a broken span
# plumbing change shows up as an error, not a slow number).
bench-trace-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkControlOpTrace' -benchtime 64x -cpu 1 .

# bench-compare diffs two saved benchmark outputs by median ns/op:
#   make bench OLD=...        # or bench-scaling, with BENCH_OUT/SCALING_OUT
#   make bench-compare OLD=old.txt NEW=new.txt
bench-compare:
	$(GO) run ./cmd/benchcmp $(OLD) $(NEW)

# bench-full runs every benchmark once (figures + microbenchmarks).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

clean:
	$(GO) clean
