package core

import (
	"sync"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// replayThrough drains ps through the pool against one fixed snapshot —
// the pool's only job kind, as every caller outside this package uses it.
func replayThrough(p *WorkerPool, s *Snapshot, ps []packet.Packet) {
	p.ReplayTrace(func() *Snapshot { return s }, mmtrace.FromPackets(ps), nil)
}

// TestWorkerPoolNoGoroutineChurn: the pool's reason to exist — workers are
// started exactly once at construction and reused for every drain.
func TestWorkerPoolNoGoroutineChurn(t *testing.T) {
	pl := allocPipeline(t)
	s := pl.Compile()
	p := NewWorkerPool(4, false)
	defer p.Close()

	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", p.Workers())
	}
	if p.Started() != 4 {
		t.Fatalf("Started() = %d after construction, want 4", p.Started())
	}
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 2048, Seed: 5})
	for call := 0; call < 50; call++ {
		replayThrough(p, s, tr.Packets)
		if got := p.Started(); got != 4 {
			t.Fatalf("Started() = %d after %d drains, want it flat at 4 (no per-call spawning)", got, call+1)
		}
	}
	if got, want := pl.Packets(), uint64(50*2048); got != want {
		t.Fatalf("processed %d packets, want %d", got, want)
	}
}

// TestWorkerPoolMatchesSequential: a four-worker drain must preserve exact
// per-bucket counts for commuting ops, matching the sequential reference.
// allocPipeline carries a sampled rule, so the snapshot is not
// frame-vectorizable and the workers run the per-frame fallback.
func TestWorkerPoolMatchesSequential(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 8192, Seed: 11})

	seqPl := allocPipeline(t)
	seqPl.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	poolPl := allocPipeline(t)
	p := NewWorkerPool(4, false)
	defer p.Close()
	replayThrough(p, poolPl.Compile(), tr.Packets)

	// The deterministic (non-probabilistic) tasks must agree bucket for
	// bucket; the sampled task (taskID 3, Prob 0.5) is excluded by
	// comparing only group 0 and group 1's first partition.
	for ci := 0; ci < 3; ci++ {
		for i := 0; i < 4096; i++ {
			a := seqPl.Group(0).CMU(ci).Register().Read(uint32(i))
			b := poolPl.Group(0).CMU(ci).Register().Read(uint32(i))
			if a != b {
				t.Fatalf("group 0 CMU %d bucket %d: sequential %d, pool %d", ci, i, a, b)
			}
		}
	}
	for i := 0; i < 2048; i++ {
		a := seqPl.Group(1).CMU(0).Register().Read(uint32(i))
		b := poolPl.Group(1).CMU(0).Register().Read(uint32(i))
		if a != b {
			t.Fatalf("group 1 bucket %d: sequential %d, pool %d", i, a, b)
		}
	}
}

// TestWorkerPoolSingleShardIsDeterministic: a one-worker pool executes the
// spans of a drain in trace order, so even the order-dependent feature
// matrix (bus chains, IntervalSub, ZeroGate) is bit-identical to the
// sequential reference. Only the rng stream differs from it — a pool
// worker's is unique — which is why the matrix carries no sampled rule.
func TestWorkerPoolSingleShardIsDeterministic(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 4096, Seed: 13})

	want := buildFramesPipeline(t)
	want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	got := buildFramesPipeline(t)
	p := NewWorkerPool(1, false)
	defer p.Close()
	replayThrough(p, got.Compile(), tr.Packets)

	compareAllRegisters(t, want, got)
}

// TestWorkerPoolConcurrentCallers: the pool must serve overlapping drains
// (the controller is shared between the daemon's replay RPC and its
// -replay soak); total packet mass must be exact.
func TestWorkerPoolConcurrentCallers(t *testing.T) {
	pl := allocPipeline(t)
	s := pl.Compile()
	p := NewWorkerPool(4, false)
	defer p.Close()

	tr := trace.Generate(trace.Config{Flows: 100, Packets: 1024, Seed: 17})
	frames := mmtrace.FromPackets(tr.Packets)
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ReplayTrace(func() *Snapshot { return s }, frames, nil)
		}()
	}
	wg.Wait()
	if got, want := pl.Packets(), uint64(callers*1024); got != want {
		t.Fatalf("processed %d packets, want %d", got, want)
	}
}

// TestWorkerPoolCloseIdempotent: double Close must not panic.
func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := NewWorkerPool(2, false)
	p.Close()
	p.Close()
}
