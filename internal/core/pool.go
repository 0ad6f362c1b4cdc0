package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
)

// WorkerPool is a persistent pool of packet-processing workers — the
// multi-pipe model with the goroutine churn compiled out. Spawning a
// goroutine and a fresh ProcCtx per chunk per call would make the
// spawn/alloc tax dominate at millions of batches. A pool
// starts its workers once: each worker owns one reusable ProcCtx with a
// unique rng stream (created via NewProcCtxUnique, so probabilistic rules
// never sample in lockstep across workers) whose digest scratch stays
// warm across batches, and batches are sharded over a channel.
//
// The pool is snapshot-agnostic: every job carries the snapshot it must
// execute against, so one pool serves a controller across arbitrarily many
// RCU republishes.
type WorkerPool struct {
	jobs    chan poolJob
	workers int
	sharded bool         // workers own register lanes (ctx.Shard = worker index)
	started atomic.Int64 // worker goroutines ever started; stays == workers
	close   sync.Once
}

type poolJob struct {
	snap *Snapshot
	seg  []packet.Packet
	// Frame-drain jobs (ProcessFrameSource) set fsrc and load instead of
	// snap/seg: the worker pulls raw frame spans from fsrc until
	// exhaustion and executes them through the FrameView-native engine
	// (Snapshot.ProcessFrames), reloading the snapshot per span so
	// on-the-fly reconfiguration stays visible mid-replay. gate, when
	// non-nil, is held shared around each span (the sharded engine's
	// procGate: drains need lane exclusivity).
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
// GOMAXPROCS). The workers live until Close.
func NewWorkerPool(n int) *WorkerPool { return newWorkerPool(n, false) }

// NewShardedWorkerPool starts a pool whose workers each own one private
// register lane: worker i processes with ctx.Shard = i, so compiled rules
// whose ops are exactly mergeable write lane i with plain stores instead
// of CASing the shared bucket. The pool must be sized to the registers'
// EnableSharding count — lane indices at or past the lane count are a
// wiring bug and panic in ShardApply.
func NewShardedWorkerPool(n int) *WorkerPool { return newWorkerPool(n, true) }

func newWorkerPool(n int, sharded bool) *WorkerPool {
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

// run is one worker's loop: a single context, reused for every job.
func (p *WorkerPool) run(id int) {
	pc := NewProcCtxUnique()
	if p.sharded {
		pc.Ctx.Shard = int32(id)
	}
	for j := range p.jobs {
		if j.fsrc != nil {
			p.drainFrames(pc, id, j)
			j.wg.Done()
			continue
		}
		for i := range j.seg {
			j.snap.Process(pc, &j.seg[i])
		}
		// Flush pending telemetry before releasing the batch so counts are
		// scrape-exact once the caller's Process returns.
		pc.teleFlush()
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

// Sharded reports whether the pool's workers own register lanes.
func (p *WorkerPool) Sharded() bool { return p.sharded }

// Started returns the number of worker goroutines ever started. It equals
// Workers for the pool's whole lifetime — the property the pool exists
// for — and tests assert it stays flat across Process calls.
func (p *WorkerPool) Started() int64 { return p.started.Load() }

// Process shards ps into `shards` contiguous chunks (shards <= 0 takes the
// worker count) and executes them on the pool's workers against one
// consistent snapshot, returning when every packet is processed. shards <= 1
// degenerates to the sequential, deterministic ProcessBatch. Safe for
// concurrent callers; per-bucket register updates are atomic, so commuting
// ops keep exact counts regardless of sharding.
func (p *WorkerPool) Process(s *Snapshot, ps []packet.Packet, shards int) {
	if len(ps) == 0 {
		return
	}
	if shards <= 0 {
		shards = p.workers
	}
	if shards > len(ps) {
		shards = len(ps)
	}
	if shards <= 1 {
		s.ProcessBatch(ps)
		return
	}
	chunk := (len(ps) + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := 0; lo < len(ps); lo += chunk {
		hi := lo + chunk
		if hi > len(ps) {
			hi = len(ps)
		}
		wg.Add(1)
		p.jobs <- poolJob{snap: s, seg: ps[lo:hi], wg: &wg}
	}
	wg.Wait()
}

// ProcessFrameSource runs every pool worker against src until it is
// exhausted, then returns: each worker drains raw frame spans through the
// FrameView-native engine. load supplies the snapshot — reloaded per span,
// so an RCU republish mid-replay takes effect at the next span boundary.
// gate, when non-nil, is acquired shared around each span (pass the
// controller's procGate in sharded mode; nil otherwise). The call allocates
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

// Close shuts the workers down. Process must not be called after Close;
// Close is idempotent.
func (p *WorkerPool) Close() {
	p.close.Do(func() { close(p.jobs) })
}
