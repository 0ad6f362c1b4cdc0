package mmtrace

import (
	"fmt"
	"math"
	"sync/atomic"

	"flymon/internal/telemetry"
)

// ReplayConfig parameterizes a Replayer.
type ReplayConfig struct {
	// Traces are the mapped traces to replay, in the order each pass
	// visits them.
	Traces []*Trace
	// Workers is the consumer count, validated to be positive. The cursor
	// serves any number of workers and never reads it; the field stays
	// because the repo benchmark (bench/) sets it.
	Workers int
	// Passes is how many times the replay walks its traces: 0 or 1 =
	// once; n > 1 = n passes; negative = loop until Stop (steady-state
	// soak / bench mode).
	Passes int
}

// defaultBatch is the span width in frames: 2,048 records (72 KiB), one
// chunk of the frame engine (core.FrameChunk), which groups each chunk's
// frames by flow key before digesting, so every span is grouped whole
// (TestReplaySpanIsWholeChunks). A worker runs one span between
// control-plane grace points, so the width is also the longest wait a
// mutation issued beside the replay sees.
const defaultBatch = 2048

// Replayer hands mapped traces to a worker pool: it is the
// core.FrameSource for replay. The replay is a numbered sequence of spans,
// each defaultBatch frames of one trace (a trace's last span may be
// shorter), running pass by pass and, inside a pass, trace by trace in
// ReplayConfig.Traces order. One atomic cursor holds the next span number;
// NextFrames claims it with one fetch-and-add and turns it into
// (trace, lo, hi). Nothing runs between calls, so a replay starts no
// goroutine, and a one-worker drain runs the spans in that order.
//
//	replayer, err := mmtrace.NewReplayer(cfg)
//	ctrl.ProcessFrameSource(replayer) // blocks until the last span ran
type Replayer struct {
	traces []*Trace
	// first[i] is the number of trace i's first span within a pass;
	// first[len(traces)] is the span count of one pass.
	first []uint64
	end   uint64 // spans in the whole replay; MaxUint64 loops until Stop

	next    atomic.Uint64 // the cursor: the next span to hand out
	packets atomic.Uint64 // frames delivered to consumers
	stop    atomic.Bool
	started atomic.Bool
}

// NewReplayer validates the config and lays out the replay's spans.
func NewReplayer(cfg ReplayConfig) (*Replayer, error) {
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("mmtrace: replay needs at least one trace")
	}
	first := make([]uint64, len(cfg.Traces)+1)
	for i, t := range cfg.Traces {
		if t == nil || t.recs == nil && t.frames > 0 {
			return nil, fmt.Errorf("mmtrace: replay trace %d is closed", i)
		}
		first[i+1] = first[i] + uint64((t.frames+defaultBatch-1)/defaultBatch)
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("mmtrace: replay needs a positive worker count")
	}
	perPass := first[len(cfg.Traces)]
	end := perPass // one pass
	switch {
	case perPass == 0:
		// Nothing to replay, looping or not: end stays 0.
	case cfg.Passes < 0 || uint64(cfg.Passes) > math.MaxUint64/perPass:
		end = math.MaxUint64
	case cfg.Passes > 1:
		end = uint64(cfg.Passes) * perPass
	}
	return &Replayer{traces: cfg.Traces, first: first, end: end}, nil
}

// Start does nothing but refuse a second call: the replay needs no start.
// It stays because the repo benchmark (bench/) calls it before each drain.
func (r *Replayer) Start() {
	if r.started.Swap(true) {
		panic("mmtrace: Replayer.Start called twice")
	}
}

// NextFrames implements core.FrameSource: it claims the next span and
// returns it as (trace, lo, hi) — no decoding, no packet materialization.
// The FrameView-native engine executes straight over the mapped record
// bytes. A nil trace means the replay is over: its last span was claimed,
// or Stop was called. The worker index is not read; any number of workers
// may call.
func (r *Replayer) NextFrames(int) (*Trace, int, int) {
	if r.stop.Load() {
		return nil, 0, 0
	}
	i := r.next.Add(1) - 1
	if i >= r.end {
		return nil, 0, 0
	}
	i %= r.first[len(r.traces)]
	k := 0
	for i >= r.first[k+1] {
		k++
	}
	t := r.traces[k]
	lo := int(i-r.first[k]) * defaultBatch
	hi := min(lo+defaultBatch, t.frames)
	r.packets.Add(uint64(hi - lo))
	return t, lo, hi
}

// Stop ends the replay: every worker's next NextFrames returns nil, and a
// span already handed out still runs to its end. Used by loop-mode replays
// (Passes < 0) and signal handlers. Safe to call multiple times.
func (r *Replayer) Stop() { r.stop.Store(true) }

// Packets returns the frames delivered to consumers so far.
func (r *Replayer) Packets() uint64 { return r.packets.Load() }

// ReplayStats is a telemetry snapshot of a replay in flight.
type ReplayStats struct {
	Packets uint64 // frames delivered to consumers
	// Ring always reads zero: nothing in the cursor can stall. It stays
	// because the repo benchmark (bench/) reports both counters.
	Ring struct{ PushStalls, PopStalls uint64 }
}

// Stats snapshots the replayer.
func (r *Replayer) Stats() ReplayStats {
	return ReplayStats{Packets: r.packets.Load()}
}

// TelemetryReplay implements telemetry.ReplaySource, so attaching the
// replayer to a registry (SetReplaySource) surfaces its progress on
// /metrics while the replay runs.
func (r *Replayer) TelemetryReplay() telemetry.ReplayReport {
	return telemetry.ReplayReport{Packets: r.packets.Load()}
}
