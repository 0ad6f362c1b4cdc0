GO ?= go

.PHONY: all check vet build test race chaos bench-allocs clean

all: check

# check is the full gate. Timing is not gated here: rates and latencies come
# from the benchmark (`go run -C bench .`, see BENCHMARK.json and
# bench/README.md), whose own tests run last.
check: vet build race chaos bench-allocs
	$(GO) test -C bench ./...

# chaos runs the fault-injection and fast-failure fleet drills under -race.
# Control channel: the faultnet transport tests, the resilient-client
# recovery paths (timeouts, resets, corrupt frames, desync, breaker), codec
# framing robustness, and the degraded-mode fleet tests. Liveness: the pure
# BFD-style session state machine, the liveness + reconciler end-to-end
# drills (kill / restart / redeploy), the seeded fault matrix
# (partition / asymmetric one-way partition / restart storm / flapping
# link via faultnet.Gate), the rpc client-vs-restarted-server breaker path,
# and the directional-blackhole Gate semantics. The fault plans use a fixed
# seed matrix (seeds 1..3 plus per-test seeds), so failures reproduce
# deterministically; every liveness drill ends behind a goroutine-leak gate.
chaos:
	$(GO) test -race -count=1 -timeout 600s \
		-run 'Chaos|Fault|Breaker|Hung|Panic|Dispatch|Codec|Client|Reset|Corrupt|Truncat|Partial|Deterministic|Listener|Delays|ZeroPlan|TestFleet(Partial|Strict|Remove|OpTimeout|Deploy)|SessionSM|Liveness|Reconcil|Hello|Restart|Gate|Incarnation' \
		./internal/faultnet/ ./internal/rpc/ ./internal/netwide/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-allocs runs the alloc-regression gates: the compiled hot path must
# stay at zero heap allocations per packet (telemetry on or off), and the
# mmap replay path must stay at zero allocations per span once steady
# (TestReplayerNextZeroAlloc).
bench-allocs:
	$(GO) test -count=1 -run 'ZeroAlloc' -v ./internal/core/ ./internal/hashing/ \
		./internal/mmtrace/ ./internal/controlplane/

clean:
	$(GO) clean
