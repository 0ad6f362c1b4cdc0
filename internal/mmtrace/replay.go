package mmtrace

import (
	"fmt"
	"sync/atomic"

	"flymon/internal/telemetry"
)

// ReplayConfig parameterizes a Replayer.
type ReplayConfig struct {
	// Traces are the mapped traces to replay. Each trace gets its own
	// producer goroutine, so a multi-file replay is genuinely
	// multi-producer on the ring.
	Traces []*Trace
	// Workers is the consumer count — must equal the worker-pool width the
	// replayer will feed (each worker owns one span descriptor).
	Workers int
	// Batch is the span width in frames (default 512: ~18 KiB of records,
	// comfortably L2-resident together with the engine's column scratch).
	Batch int
	// Passes is how many times each producer replays its trace: 0 or 1 =
	// once; n > 1 = n passes; negative = loop until Stop (steady-state
	// soak / bench mode).
	Passes int
}

const (
	defaultBatch = 512
	// defaultRingSpans is the ring capacity in spans.
	defaultRingSpans = 1024
)

// workerState is one consumer's private scratch: the span descriptor
// PopBatch fills. It is allocated once at construction, so steady-state
// replay performs zero allocations.
type workerState struct {
	span [1]Span
}

// Replayer drives traces through the ring into a worker pool. It is the
// core.FrameSource for replay: each pool worker calls NextFrames(w) in a
// loop, receiving raw frame spans until the producers finish (or Stop is
// called) and the ring drains.
//
//	replayer := mmtrace.NewReplayer(cfg)
//	replayer.Start()
//	ctrl.ProcessFrameSource(replayer) // blocks until the ring drains
type Replayer struct {
	traces  []*Trace
	ring    *Ring
	workers []workerState
	batch   int
	passes  int

	producers atomic.Int64 // producers still running
	stop      atomic.Bool
	packets   atomic.Uint64 // frames delivered to consumers
	started   atomic.Bool
}

// NewReplayer validates the config and allocates all replay state up
// front (ring slots and per-worker span descriptors).
func NewReplayer(cfg ReplayConfig) (*Replayer, error) {
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("mmtrace: replay needs at least one trace")
	}
	for i, t := range cfg.Traces {
		if t == nil || t.recs == nil && t.frames > 0 {
			return nil, fmt.Errorf("mmtrace: replay trace %d is closed", i)
		}
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("mmtrace: replay needs a positive worker count")
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = defaultBatch
	}
	passes := cfg.Passes
	if passes == 0 {
		passes = 1
	}
	r := &Replayer{
		traces:  cfg.Traces,
		ring:    NewRing(defaultRingSpans),
		workers: make([]workerState, cfg.Workers),
		batch:   batch,
		passes:  passes,
	}
	return r, nil
}

// Start launches one producer goroutine per trace. The last producer to
// finish closes the ring; consumers then drain and terminate. Start may be
// called once.
func (r *Replayer) Start() {
	if r.started.Swap(true) {
		panic("mmtrace: Replayer.Start called twice")
	}
	r.producers.Store(int64(len(r.traces)))
	for i := range r.traces {
		go r.produce(int32(i))
	}
}

// produce is one trace's producer: it walks the trace in batch-sized spans
// and pushes them, buffering pushBuf spans per PushBatch so head is
// claimed in chunks, not per span.
func (r *Replayer) produce(src int32) {
	const pushBuf = 64
	t := r.traces[src]
	frames := int64(t.Frames())
	spans := make([]Span, 0, pushBuf)
	for pass := int32(0); frames > 0; pass++ {
		if r.passes > 0 && int(pass) >= r.passes {
			break
		}
		if r.stop.Load() {
			break
		}
		for lo := int64(0); lo < frames; {
			hi := lo + int64(r.batch)
			if hi > frames {
				hi = frames
			}
			spans = append(spans, Span{Src: src, Pass: pass, Lo: lo, Hi: hi})
			lo = hi
			if len(spans) == pushBuf {
				r.ring.PushBatch(spans)
				spans = spans[:0]
				if r.stop.Load() {
					break
				}
			}
		}
		if len(spans) > 0 {
			r.ring.PushBatch(spans)
			spans = spans[:0]
		}
	}
	if r.producers.Add(-1) == 0 {
		r.ring.Close()
	}
}

// NextFrames implements core.FrameSource: it claims the next span for
// worker w and returns it as (trace, lo, hi) — no decoding, no packet
// materialization. The FrameView-native engine executes straight over the
// mapped record bytes. A nil trace means the replay is complete (producers
// done, ring drained).
func (r *Replayer) NextFrames(w int) (*Trace, int, int) {
	s := &r.workers[w]
	if r.ring.PopBatch(s.span[:]) == 0 {
		return nil, 0, 0
	}
	sp := s.span[0]
	r.packets.Add(uint64(sp.Hi - sp.Lo))
	return r.traces[sp.Src], int(sp.Lo), int(sp.Hi)
}

// Stop asks the producers to finish their in-flight span chunk and close
// the ring; consumers then drain naturally. Used by loop-mode replays
// (Passes < 0) and signal handlers. Safe to call multiple times.
func (r *Replayer) Stop() { r.stop.Store(true) }

// Packets returns the frames delivered to consumers so far.
func (r *Replayer) Packets() uint64 { return r.packets.Load() }

// ReplayStats is a telemetry snapshot of a replay in flight.
type ReplayStats struct {
	Packets   uint64 // frames delivered to consumers
	Producers int    // producer goroutines still running
	Ring      RingStats
}

// Stats snapshots the replayer.
func (r *Replayer) Stats() ReplayStats {
	return ReplayStats{
		Packets:   r.packets.Load(),
		Producers: int(r.producers.Load()),
		Ring:      r.ring.Stats(),
	}
}

// TelemetryReplay implements telemetry.ReplaySource, so attaching the
// replayer to a registry (SetReplaySource) surfaces ring occupancy and
// stall counters on /metrics while the replay runs.
func (r *Replayer) TelemetryReplay() telemetry.ReplayReport {
	s := r.Stats()
	return telemetry.ReplayReport{
		Packets:       s.Packets,
		Producers:     s.Producers,
		RingCap:       s.Ring.Cap,
		RingOccupancy: s.Ring.Occupancy,
		RingSpans:     s.Ring.Spans,
		PushStalls:    s.Ring.PushStalls,
		PopStalls:     s.Ring.PopStalls,
	}
}
