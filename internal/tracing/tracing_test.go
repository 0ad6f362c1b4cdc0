package tracing

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"flymon/internal/telemetry"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("deploy")
	if sp != nil {
		t.Fatalf("nil tracer minted a span")
	}
	// Every ActiveSpan method must be a no-op on nil.
	sp.SetDetail("x")
	sp.SetSwitch(3)
	sp.SetAttempt(2)
	sp.Finish(errors.New("boom"))
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span produced a valid context: %+v", sc)
	}
	child := tr.StartSpan(SpanContext{Trace: 1, Span: 2}, "rpc")
	if child != nil {
		t.Fatalf("nil tracer minted a child span")
	}
	if spans, total, dropped := tr.Dump(); spans != nil || total != 0 || dropped != 0 {
		t.Fatalf("nil tracer dump = %v %d %d", spans, total, dropped)
	}
	if fams := tr.Families(); fams != nil {
		t.Fatalf("nil tracer has metric families: %+v", fams)
	}

	// The structural form of "tracing armed but op untraced ≡ tracing
	// off": the sequence every control op runs around its RPC costs no
	// allocation when there is no root span or no tracer. The timed form
	// is the benchmark's harness.trace_overhead_pct.
	if n := testing.AllocsPerRun(100, func() {
		var root *ActiveSpan
		_ = root.Context()
		root.Finish(nil)
	}); n != 0 {
		t.Fatalf("untraced op allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.StartRoot("query").Finish(nil) }); n != 0 {
		t.Fatalf("nil-tracer StartRoot allocates %.1f times, want 0", n)
	}
}

func TestSpanParentage(t *testing.T) {
	tr := New(64)
	root := tr.StartRoot("deploy")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root context invalid")
	}
	child := tr.StartSpan(rc, "rpc:add_task")
	child.SetSwitch(2)
	child.SetAttempt(1)
	child.Finish(nil)
	root.Finish(nil)

	spans, total, dropped := tr.Dump()
	if total != 2 || dropped != 0 || len(spans) != 2 {
		t.Fatalf("dump: %d spans, total=%d dropped=%d", len(spans), total, dropped)
	}
	// Buffer order is finish order: child first.
	if spans[0].Name != "rpc:add_task" || spans[1].Name != "deploy" {
		t.Fatalf("unexpected order: %q %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Trace != spans[1].Trace {
		t.Fatalf("child escaped the trace: %x vs %x", spans[0].Trace, spans[1].Trace)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %x, root id = %x", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root has a parent: %x", spans[1].Parent)
	}
	if spans[0].Switch != 2 || spans[0].Attempt != 1 {
		t.Fatalf("tags lost: %+v", spans[0])
	}
}

func TestInvalidParentStartsFreshRoot(t *testing.T) {
	tr := New(16)
	sp := tr.StartSpan(SpanContext{}, "dispatch")
	sp.Finish(nil)
	spans, _, _ := tr.Dump()
	if len(spans) != 1 || spans[0].Parent != 0 || spans[0].Trace == 0 {
		t.Fatalf("invalid parent did not mint a root: %+v", spans)
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := New(16)
	sp := tr.StartRoot("op")
	sp.Finish(nil)
	sp.Finish(errors.New("late"))
	spans, total, _ := tr.Dump()
	if total != 1 || len(spans) != 1 {
		t.Fatalf("double Finish committed twice: total=%d", total)
	}
	if spans[0].Err != "" {
		t.Fatalf("second Finish mutated the committed span: %+v", spans[0])
	}
}

func TestBufferOverflowCountsDrops(t *testing.T) {
	tr := New(8) // rounds to 8 slots
	for i := 0; i < 20; i++ {
		tr.StartRoot("op").Finish(nil)
	}
	spans, total, dropped := tr.Dump()
	if total != 20 {
		t.Fatalf("total = %d, want 20", total)
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped() = %d, want 12", got)
	}
}

func TestBufferConcurrentWriters(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartRoot("op")
				sp.SetSwitch(i)
				sp.Finish(nil)
			}
		}()
	}
	// Concurrent snapshots must never tear or panic.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			spans, _, _ := tr.Dump()
			for _, sp := range spans {
				if sp.Name != "op" {
					panic("torn span: " + sp.Name)
				}
			}
		}
	}()
	wg.Wait()
	<-done
	_, total, dropped := tr.Dump()
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
	if dropped != workers*per-64 {
		t.Fatalf("dropped = %d, want %d", dropped, workers*per-64)
	}
}

func TestIDsUniqueAndNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatalf("zero ID at %d", i)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %x at %d", id, i)
		}
		seen[id] = true
	}
}

func TestWriteMetrics(t *testing.T) {
	tr := New(16)
	sp := tr.StartRoot("deploy")
	time.Sleep(time.Millisecond)
	sp.Finish(nil)
	tr.StartRoot("query").Finish(nil)

	var b strings.Builder
	if err := telemetry.WriteText(&b, tr.Families()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"flymon_trace_spans_total 2",
		"flymon_trace_dropped_total 0",
		`flymon_trace_span_latency_seconds_count{op="deploy"} 1`,
		`flymon_trace_span_latency_seconds_count{op="query"} 1`,
		`flymon_trace_span_latency_seconds_bucket{op="deploy",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramCardinalityBounded(t *testing.T) {
	tr := New(16)
	for i := 0; i < maxHistOps+20; i++ {
		tr.StartRoot(strings.Repeat("x", 1+i%7) + "op").Finish(nil)
	}
	tr.mu.Lock()
	n := len(tr.hists)
	tr.mu.Unlock()
	if n > maxHistOps+1 { // +1 for the "other" fold-in series
		t.Fatalf("histogram map grew to %d ops", n)
	}
}
