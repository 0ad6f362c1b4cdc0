package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// replayThrough drains ps through the pool against one fixed snapshot —
// the pool's only job kind, as every caller outside this package uses it.
func replayThrough(p *WorkerPool, s *Snapshot, ps []packet.Packet) {
	p.ReplayTrace(func() *Snapshot { return s }, mmtrace.FromPackets(ps), nil)
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms: goroutines on their way out, such as a closed pool's workers,
// are gone by then.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for quiet, i := 0, 0; quiet < 4 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, quiet = m, 0
		} else {
			quiet++
		}
	}
	return n
}

// TestWorkerPoolNoGoroutineChurn: the caller of a drain is worker 0, so a
// pool of W workers runs W−1 goroutines — none at one worker. They start
// on the first drain, not at construction, are reused by every later drain
// and stop at Close; a drain after Close runs on its caller alone.
func TestWorkerPoolNoGoroutineChurn(t *testing.T) {
	pl := allocPipeline(t)
	s := pl.Compile()
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 2048, Seed: 5})
	drains := 0
	for _, w := range []int{1, 4} {
		before := settledGoroutines()
		p := NewWorkerPool(w, false)
		if p.Workers() != w {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), w)
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("width %d: NewWorkerPool started %d goroutines, want 0", w, got-before)
		}
		for call := 0; call < 50; call++ {
			replayThrough(p, s, tr.Packets)
			drains++
			if got := runtime.NumGoroutine(); got != before+w-1 {
				t.Fatalf("width %d: %d goroutines after %d drains, want %d (W−1, no per-call spawning)", w, got-before, call+1, w-1)
			}
		}
		p.Close()
		if got := settledGoroutines(); got != before {
			t.Fatalf("width %d: %d goroutines outlive Close", w, got-before)
		}
		replayThrough(p, s, tr.Packets)
		drains++
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("width %d: a drain after Close started %d goroutines, want 0", w, got-before)
		}
	}
	if got, want := pl.Packets(), uint64(drains*2048); got != want {
		t.Fatalf("processed %d packets, want %d", got, want)
	}
}

// rewindSource hands out a trace's frames in FrameChunk spans until it is
// exhausted; rewind makes it hand them out again, so one source serves any
// number of drains.
type rewindSource struct {
	t    *mmtrace.Trace
	next atomic.Int64
}

func (r *rewindSource) NextFrames(int) (*mmtrace.Trace, int, int) {
	lo := int(r.next.Add(FrameChunk)) - FrameChunk
	if lo >= r.t.Frames() {
		return nil, 0, 0
	}
	return r.t, lo, min(lo+FrameChunk, r.t.Frames())
}

func (r *rewindSource) rewind() { r.next.Store(0) }

// TestProcessFrameSourceZeroAlloc: at one worker a drain runs on its caller
// with no handoff, so once the pool has started a drain over a reusable
// source allocates nothing (matched by `make bench-allocs`).
func TestProcessFrameSourceZeroAlloc(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 2*FrameChunk + 7, Seed: 14})
	src := &rewindSource{t: writeFrameTrace(t, tr.Packets)}
	s := nineCMS(t, 4096).Compile()
	load := func() *Snapshot { return s }
	var gate sync.RWMutex
	p := NewWorkerPool(1, false)
	defer p.Close()
	p.ProcessFrameSource(load, src, &gate) // start the pool, warm the scratch
	if n := testing.AllocsPerRun(20, func() {
		src.rewind()
		p.ProcessFrameSource(load, src, &gate)
	}); n != 0 {
		t.Fatalf("ProcessFrameSource allocates %.1f times per drain, want 0", n)
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
// -replay soak). Worker 0's context belongs to one caller at a time, at
// one worker as at four; total packet mass must be exact, and under -race
// two callers sharing worker 0 show as a data race.
func TestWorkerPoolConcurrentCallers(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 1024, Seed: 17})
	frames := mmtrace.FromPackets(tr.Packets)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			pl := allocPipeline(t)
			s := pl.Compile()
			p := NewWorkerPool(w, false)
			defer p.Close()
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
		})
	}
}

// TestWorkerPoolCloseIdempotent: double Close must not panic.
func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := NewWorkerPool(2, false)
	p.Close()
	p.Close()
}
