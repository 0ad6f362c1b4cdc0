package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flymon/internal/mmtrace"
)

// WorkerPool is a persistent pool of packet-processing workers — the
// multi-pipe model with the goroutine churn compiled out. A pool starts
// its workers once: each worker owns one reusable ProcCtx with a unique
// rng stream (created via NewProcCtxUnique, so probabilistic rules never
// sample in lockstep across workers) whose digest and column scratch stays
// warm across drains. The pool has exactly one job kind, the frame drain:
// every multi-packet caller hands it a FrameSource (ProcessFrameSource, or
// ReplayTrace for one pass over one trace) and the workers pull raw record
// spans from it.
//
// The pool is snapshot-agnostic: every job carries the loader of the
// snapshot it must execute against, so one pool serves a controller across
// arbitrarily many RCU republishes.
type WorkerPool struct {
	jobs    chan poolJob
	workers int
	sharded bool         // workers own register lanes (ctx.Shard = worker index)
	started atomic.Int64 // worker goroutines ever started; stays == workers
	close   sync.Once
}

// poolJob is one worker's share of a frame drain: the worker pulls raw
// frame spans from fsrc until exhaustion and executes them through the
// FrameView-native engine (Snapshot.ProcessFrames), reloading the snapshot
// per span so on-the-fly reconfiguration stays visible mid-replay. gate,
// when non-nil, is held shared around each span's snapshot load and
// execution (the controller's reader registry: grace periods and lane
// drains take it exclusive).
type poolJob struct {
	fsrc FrameSource
	load func() *Snapshot
	gate *sync.RWMutex
	wg   *sync.WaitGroup
}

// FrameSource feeds pool workers raw trace spans — the pull-side contract
// of the replay path (internal/mmtrace.Replayer implements it over an
// mmap-backed span ring). NextFrames returns the trace and the frame
// range [lo, hi) worker w should process next, or (nil, 0, 0) when the
// source is exhausted. The returned trace is immutable and shared; the
// range is exclusively w's. NextFrames must be safe for concurrent calls
// with distinct w.
type FrameSource interface {
	NextFrames(w int) (t *mmtrace.Trace, lo, hi int)
}

// NewWorkerPool starts a pool of n long-lived workers (n <= 0 takes
// GOMAXPROCS) that live until Close. With sharded set each worker owns one
// private register lane: worker i processes with ctx.Shard = i, so compiled
// rules whose ops are exactly mergeable write lane i with plain stores
// instead of CASing the shared bucket. A sharded pool must be sized to the
// registers' EnableSharding count — lane indices at or past the lane count
// are a wiring bug and panic in ShardApply.
func NewWorkerPool(n int, sharded bool) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &WorkerPool{jobs: make(chan poolJob, 4*n), workers: n, sharded: sharded}
	for i := 0; i < n; i++ {
		p.started.Add(1)
		go p.run(i)
	}
	return p
}

// run is one worker's loop: a single context, reused for every drain.
func (p *WorkerPool) run(id int) {
	pc := NewProcCtxUnique()
	if p.sharded {
		pc.Ctx.Shard = int32(id)
	}
	for j := range p.jobs {
		p.drainFrames(pc, id, j)
		j.wg.Done()
	}
}

// drainFrames pulls raw frame spans from a source job until exhaustion.
// Each span runs against a freshly loaded snapshot under a shared gate
// acquisition, so control-plane mutations (republish, drain, resize)
// interleave with a long replay at span granularity instead of waiting for
// the whole stream. The span executes through Snapshot.ProcessFrames — the
// stage-at-a-time engine when the snapshot is eligible, the per-frame
// decode fallback otherwise. Either way a mid-span republish lands at the
// next span boundary with bit-identical results.
func (p *WorkerPool) drainFrames(pc *ProcCtx, id int, j poolJob) {
	for {
		t, lo, hi := j.fsrc.NextFrames(id)
		if t == nil {
			return
		}
		if j.gate != nil {
			j.gate.RLock()
		}
		snap := j.load()
		snap.ProcessFrames(pc, t, lo, hi)
		pc.teleFlush()
		if j.gate != nil {
			j.gate.RUnlock()
		}
	}
}

// Workers returns the pool's worker count.
func (p *WorkerPool) Workers() int { return p.workers }

// Started returns the number of worker goroutines ever started. It equals
// Workers for the pool's whole lifetime — the property the pool exists
// for — and tests assert it stays flat across drains.
func (p *WorkerPool) Started() int64 { return p.started.Load() }

// ProcessFrameSource runs every pool worker against src until it is
// exhausted, then returns: each worker drains raw frame spans through the
// FrameView-native engine. load supplies the snapshot — reloaded per span,
// so an RCU republish mid-replay takes effect at the next span boundary.
// gate, when non-nil, is acquired shared around each span (the controller
// always passes its procGate; nil is for a bare snapshot with no control
// plane behind it). The call allocates
// only the per-call WaitGroup: the steady-state span loop is
// allocation-free.
func (p *WorkerPool) ProcessFrameSource(load func() *Snapshot, src FrameSource, gate *sync.RWMutex) {
	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		p.jobs <- poolJob{fsrc: src, load: load, gate: gate, wg: &wg}
	}
	wg.Wait()
}

// ReplayTrace drains one pass over t through the pool and returns when
// every frame has executed: a replayer sized to the pool, started, handed
// to ProcessFrameSource (load and gate as there). It is the one-call form
// of the replay path for callers that hold a whole trace and need none of
// the replayer's loop, stop or telemetry controls.
func (p *WorkerPool) ReplayTrace(load func() *Snapshot, t *mmtrace.Trace, gate *sync.RWMutex) {
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{Traces: []*mmtrace.Trace{t}, Workers: p.workers})
	if err != nil {
		panic(err) // one trace, a positive width: only a closed trace, a caller bug
	}
	rep.Start()
	p.ProcessFrameSource(load, rep, gate)
}

// Close shuts the workers down. No drain may be started after Close; Close
// is idempotent.
func (p *WorkerPool) Close() {
	p.close.Do(func() { close(p.jobs) })
}
