package core

import (
	"runtime"
	"sync"

	"flymon/internal/mmtrace"
)

// WorkerPool is a persistent pool of packet-processing workers — the
// multi-pipe model with the goroutine churn compiled out. The caller of a
// drain is worker 0; workers 1…W−1 are goroutines started by the first
// drain and kept until Close, so a one-worker pool runs none. Each worker
// owns one reusable ProcCtx with a unique rng stream (NewProcCtxUnique, so
// probabilistic rules never sample in lockstep across workers); the chunk
// scratch a span runs on is lent for the span (ProcessFrames). The pool has
// exactly one job kind, the frame drain: every multi-packet caller hands it
// a FrameSource (ProcessFrameSource, or ReplayTrace for one pass over one
// trace) and the workers pull raw record spans from it.
//
// The pool is snapshot-agnostic: every job carries the loader of the
// snapshot it must execute against, so one pool serves a controller across
// arbitrarily many RCU republishes.
type WorkerPool struct {
	workers int
	sharded bool // workers own register lanes (ctx.Shard = worker index)

	// mu is worker 0's turn: a drain holds it from start to finish, so
	// concurrent callers take turns. It guards every field below.
	mu     sync.Mutex
	ctx0   *ProcCtx     // worker 0's context; nil until the first drain
	jobs   chan poolJob // to workers 1…W−1; nil while none run
	done   sync.WaitGroup
	closed bool
}

// poolJob is one drain as each of its workers runs it (drainFrames): the
// arguments of ProcessFrameSource.
type poolJob struct {
	fsrc FrameSource
	load func() *Snapshot
	gate *sync.RWMutex
}

// FrameSource feeds pool workers raw trace spans — the pull-side contract
// of the replay path (internal/mmtrace.Replayer implements it with one
// atomic span cursor over mapped traces). NextFrames returns the trace and
// the frame range [lo, hi) worker w should process next, or (nil, 0, 0)
// when the source is exhausted. The returned trace is immutable and
// shared; the range is exclusively w's. NextFrames must be safe for
// concurrent calls with distinct w.
type FrameSource interface {
	NextFrames(w int) (t *mmtrace.Trace, lo, hi int)
}

// NewWorkerPool returns a pool of n workers (n <= 0 takes GOMAXPROCS),
// starting nothing until its first drain. With sharded set each worker owns
// one private register lane: worker i processes with ctx.Shard = i, so
// compiled rules whose ops are exactly mergeable write lane i with plain
// stores instead of CASing the shared bucket. A sharded pool must be sized
// to the registers' EnableSharding count — lane indices at or past the
// lane count are a wiring bug and panic in ShardApply.
func NewWorkerPool(n int, sharded bool) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{workers: n, sharded: sharded}
}

// start creates worker 0's context and, unless the pool is closed, starts
// workers 1…W−1 with theirs, drawing the rng streams in worker order.
// Callers hold p.mu.
func (p *WorkerPool) start() {
	p.ctx0 = p.newCtx(0)
	if p.closed || p.workers == 1 {
		return
	}
	p.jobs = make(chan poolJob, p.workers-1)
	for id := 1; id < p.workers; id++ {
		go p.run(p.jobs, id, p.newCtx(id))
	}
}

func (p *WorkerPool) newCtx(id int) *ProcCtx {
	pc := NewProcCtxUnique()
	if p.sharded {
		pc.Ctx.Shard = int32(id)
	}
	return pc
}

// run is one helper worker's loop: a single context, reused for every drain.
func (p *WorkerPool) run(jobs <-chan poolJob, id int, pc *ProcCtx) {
	for j := range jobs {
		drainFrames(pc, id, j)
		p.done.Done()
	}
}

// drainFrames pulls raw frame spans from a source job until exhaustion.
// Each span runs against a freshly loaded snapshot under a shared gate
// acquisition, so control-plane mutations (republish, drain, resize)
// interleave with a long replay at span granularity instead of waiting for
// the whole stream. The span executes through Snapshot.ProcessFrames —
// rules stage at a time when the snapshot is frame-vectorised, in packet
// order otherwise. Either way a mid-span republish lands at the next span
// boundary with bit-identical results.
func drainFrames(pc *ProcCtx, id int, j poolJob) {
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

// ProcessFrameSource runs every pool worker against src until it is
// exhausted, then returns: each worker drains raw frame spans through the
// FrameView-native engine, the caller as worker 0. load supplies the
// snapshot — reloaded per span, so an RCU republish mid-replay takes effect
// at the next span boundary. gate, when non-nil, is acquired shared around
// each span (the controller always passes its procGate; nil is for a bare
// snapshot with no control plane behind it). Concurrent calls take turns.
// At one worker, or after Close, the caller drains src alone with no
// handoff; the call allocates nothing once the pool has started.
func (p *WorkerPool) ProcessFrameSource(load func() *Snapshot, src FrameSource, gate *sync.RWMutex) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctx0 == nil {
		p.start()
	}
	j := poolJob{fsrc: src, load: load, gate: gate}
	if p.jobs != nil {
		p.done.Add(p.workers - 1)
		for id := 1; id < p.workers; id++ {
			p.jobs <- j
		}
	}
	drainFrames(p.ctx0, 0, j)
	if p.jobs != nil {
		p.done.Wait()
	}
}

// ReplayTrace drains one pass over t through the pool and returns when
// every frame has executed: a one-pass replayer handed to
// ProcessFrameSource (load and gate as there). It is the one-call form
// of the replay path for callers that hold a whole trace and need none of
// the replayer's loop, stop or telemetry controls.
func (p *WorkerPool) ReplayTrace(load func() *Snapshot, t *mmtrace.Trace, gate *sync.RWMutex) {
	rep, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{Traces: []*mmtrace.Trace{t}, Workers: p.workers})
	if err != nil {
		panic(err) // one trace, a positive width: only a closed trace, a caller bug
	}
	p.ProcessFrameSource(load, rep, gate)
}

// Close stops workers 1…W−1, after the drain in flight if there is one.
// A drain after Close runs on its caller alone and starts nothing; Close is
// idempotent.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}
