// Package tracing is FlyMon's lightweight distributed tracing plane for
// the control channel. Every controller-originated operation (deploy,
// remove, epoch rotation, fleet query) mints a trace ID and a root span;
// the span context rides the rpc.Request envelope's optional `trace`
// field to the daemons, which record their own dispatch and controlplane
// spans under the same trace. Spans land in a bounded lock-free
// per-process buffer (overwrites are counted, never silently lost) and
// are exported three ways: the trace_dump RPC, the /debug/trace admin
// endpoint, and Prometheus span-latency histograms.
//
// The design goal is zero cost when absent: a nil *Tracer is a valid
// disabled tracer — every method on a nil Tracer or nil ActiveSpan is a
// no-op returning zero values, so instrumented call sites are branchless
// and the data-plane hot path is untouched.
package tracing

import (
	"sync"
	"sync/atomic"
	"time"

	"flymon/internal/telemetry"
)

// TraceID identifies one end-to-end control-plane operation across
// processes. Zero is invalid.
type TraceID uint64

// SpanID identifies one span within a trace. Zero is invalid (it is the
// Parent value of a root span).
type SpanID uint64

// SpanContext is the propagated half of a span: enough for a remote
// process to parent its own spans under ours. It is embedded verbatim in
// the rpc.Request envelope as the `trace` field; old peers ignore it.
type SpanContext struct {
	Trace TraceID `json:"t"`
	Span  SpanID  `json:"s"`
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Span is one finished timed operation. Spans are plain values: they
// serialize over the trace_dump RPC and /debug/trace unchanged.
type Span struct {
	Trace   TraceID `json:"trace"`
	ID      SpanID  `json:"id"`
	Parent  SpanID  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	Switch  int     `json:"sw"`                // switch index; -1 = not switch-scoped
	Attempt int     `json:"attempt,omitempty"` // RPC attempt ordinal (1-based; 0 = n/a)
	StartNs int64   `json:"start_ns"`          // wall clock, unix nanoseconds
	DurNs   int64   `json:"dur_ns"`
	Err     string  `json:"err,omitempty"`
}

// End returns the span's wall-clock end, in unix nanoseconds.
func (s Span) End() int64 { return s.StartNs + s.DurNs }

// Context returns the span's own propagation context.
func (s Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// maxHistOps bounds the span-latency histogram map so a buggy caller
// minting per-item span names cannot grow metric cardinality without
// bound; overflow names fold into the "other" series.
const maxHistOps = 64

// Tracer mints spans and owns the process's bounded span buffer. A nil
// Tracer is the disabled tracer: every method is a no-op.
type Tracer struct {
	buf *buffer

	mu    sync.Mutex
	hists map[string]*telemetry.Histogram
}

// DefaultBufferSpans is the span-buffer capacity used when New is given a
// non-positive size: enough for several hundred fleet operations on a
// modest fleet before the ring laps.
const DefaultBufferSpans = 4096

// New builds a Tracer with a bounded span buffer of the given capacity
// (rounded up to a power of two; <= 0 selects DefaultBufferSpans).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultBufferSpans
	}
	return &Tracer{
		buf:   newBuffer(capacity),
		hists: make(map[string]*telemetry.Histogram),
	}
}

// StartRoot mints a fresh trace and its root span. The returned span is
// nil (and safe to use) when the tracer is disabled.
func (t *Tracer) StartRoot(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return t.start(SpanContext{Trace: TraceID(newID())}, name)
}

// StartSpan opens a child span under parent. An invalid parent starts a
// fresh root trace instead, so call sites need no branching on whether an
// upstream tracer was attached.
func (t *Tracer) StartSpan(parent SpanContext, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	return t.start(parent, name)
}

func (t *Tracer) start(parent SpanContext, name string) *ActiveSpan {
	now := time.Now()
	return &ActiveSpan{
		t:     t,
		start: now,
		span: Span{
			Trace:   parent.Trace,
			ID:      SpanID(newID()),
			Parent:  parent.Span,
			Name:    name,
			Switch:  -1,
			StartNs: now.UnixNano(),
		},
	}
}

// Dump snapshots the span buffer: the retained spans (oldest first), the
// total ever recorded, and how many were overwritten by the bounded ring.
func (t *Tracer) Dump() (spans []Span, total, dropped uint64) {
	if t == nil {
		return nil, 0, 0
	}
	return t.buf.snapshot()
}

// Dropped returns how many spans the bounded buffer has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	_, dropped := t.buf.counts()
	return dropped
}

// observe folds a finished span into the buffer and its per-op latency
// histogram.
func (t *Tracer) observe(sp Span) {
	t.buf.put(sp)
	t.mu.Lock()
	h := t.hists[sp.Name]
	if h == nil {
		if len(t.hists) >= maxHistOps {
			if h = t.hists["other"]; h == nil {
				h = &telemetry.Histogram{}
				t.hists["other"] = h
			}
		} else {
			h = &telemetry.Histogram{}
			t.hists[sp.Name] = h
		}
	}
	t.mu.Unlock()
	h.Observe(time.Duration(sp.DurNs))
}

// ActiveSpan is an in-flight span. All methods are nil-safe; the zero
// cost of a disabled tracer is a handful of nil checks.
type ActiveSpan struct {
	t     *Tracer
	start time.Time
	span  Span
	done  atomic.Bool
}

// Context returns the propagation context naming this span as parent.
// On a nil span it returns the invalid zero context, which downstream
// StartSpan/RPC plumbing treats as "no trace".
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.span.Context()
}

// SetDetail attaches a free-form annotation (address, task name, outcome).
func (s *ActiveSpan) SetDetail(detail string) {
	if s != nil {
		s.span.Detail = detail
	}
}

// SetSwitch tags the span with the fleet switch index it concerns.
func (s *ActiveSpan) SetSwitch(i int) {
	if s != nil {
		s.span.Switch = i
	}
}

// SetAttempt tags the span with its RPC attempt ordinal (1-based).
func (s *ActiveSpan) SetAttempt(n int) {
	if s != nil {
		s.span.Attempt = n
	}
}

// Finish stamps the duration, records the error outcome (nil = success),
// and commits the span to the buffer. Finish is idempotent: only the
// first call commits.
func (s *ActiveSpan) Finish(err error) {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.span.DurNs = time.Since(s.start).Nanoseconds()
	if err != nil {
		s.span.Err = err.Error()
	}
	s.t.observe(s.span)
}

// idState seeds the process-wide ID stream from the clock once, then
// derives every ID with a splitmix64 step: unique, well-distributed,
// never zero, and cheap enough to mint on every span.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

func newID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}
