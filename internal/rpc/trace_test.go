package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/tracing"
)

// startTracedServer is startServer with tracers on both ends.
func startTracedServer(t *testing.T) (*Server, *Client, *tracing.Tracer, *tracing.Tracer) {
	t.Helper()
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	srvTracer := tracing.New(256)
	srv.SetTracer(srvTracer)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cliTracer := tracing.New(256)
	client, err := DialOptions(addr, Options{Tracer: cliTracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client, cliTracer, srvTracer
}

func spansByName(spans []tracing.Span) map[string][]tracing.Span {
	m := make(map[string][]tracing.Span)
	for _, sp := range spans {
		m[sp.Name] = append(m[sp.Name], sp)
	}
	return m
}

func TestTracePropagatesAcrossRPC(t *testing.T) {
	_, c, cliTr, srvTr := startTracedServer(t)

	root := cliTr.StartRoot("deploy")
	if _, err := c.AddTask(freqSpec("traced"), root.Context()); err != nil {
		t.Fatal(err)
	}
	root.Finish(nil)

	cliSpans, _, _ := cliTr.Dump()
	cm := spansByName(cliSpans)
	rpcSpans := cm["rpc:add_task"]
	if len(rpcSpans) != 1 {
		t.Fatalf("client rpc spans = %d, want 1 (%+v)", len(rpcSpans), cliSpans)
	}
	if rpcSpans[0].Parent != cm["deploy"][0].ID {
		t.Fatalf("rpc span not parented to root")
	}
	if rpcSpans[0].Attempt != 1 {
		t.Fatalf("attempt = %d", rpcSpans[0].Attempt)
	}

	srvSpans, _, _ := srvTr.Dump()
	sm := spansByName(srvSpans)
	disp := sm["dispatch:add_task"]
	ctl := sm["controlplane:add_task"]
	if len(disp) != 1 || len(ctl) != 1 {
		t.Fatalf("daemon spans: dispatch=%d controlplane=%d (%+v)", len(disp), len(ctl), srvSpans)
	}
	// Causality: client rpc span → daemon dispatch → controlplane mutation,
	// all inside the root's trace.
	if disp[0].Trace != rpcSpans[0].Trace || disp[0].Trace != tracing.TraceID(root.Context().Trace) {
		t.Fatalf("trace ID did not propagate: %x vs %x", disp[0].Trace, rpcSpans[0].Trace)
	}
	if disp[0].Parent != rpcSpans[0].ID {
		t.Fatalf("dispatch parent = %x, want client rpc span %x", disp[0].Parent, rpcSpans[0].ID)
	}
	if ctl[0].Parent != disp[0].ID {
		t.Fatalf("controlplane parent = %x, want dispatch %x", ctl[0].Parent, disp[0].ID)
	}
}

func TestUntracedCallsRecordNothing(t *testing.T) {
	_, c, cliTr, srvTr := startTracedServer(t)
	// No parent context: liveness probes and plain calls must not flood
	// either buffer.
	if _, err := c.AddTask(freqSpec("plain")); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, total, _ := cliTr.Dump(); total != 0 {
		t.Fatalf("client recorded %d spans for untraced calls", total)
	}
	if _, total, _ := srvTr.Dump(); total != 0 {
		t.Fatalf("daemon recorded %d spans for untraced calls", total)
	}
}

func TestTraceAgainstUntracedDaemon(t *testing.T) {
	// Wire compatibility: a daemon without a tracer ignores the trace
	// field and the call succeeds; the client half of the trace survives.
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 65536, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cliTr := tracing.New(64)
	c, err := DialOptions(addr, Options{Tracer: cliTr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := cliTr.StartRoot("deploy")
	if _, err := c.AddTask(freqSpec("old-peer"), root.Context()); err != nil {
		t.Fatal(err)
	}
	root.Finish(nil)
	spans, _, _ := cliTr.Dump()
	if len(spans) != 2 {
		t.Fatalf("client spans = %d, want 2", len(spans))
	}
	// And the untraced daemon's dump RPC answers empty instead of failing.
	dump, err := c.TraceDump(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) != 0 || dump.Total != 0 {
		t.Fatalf("untraced daemon dump = %+v", dump)
	}
}

func TestTraceDumpRPC(t *testing.T) {
	_, c, cliTr, _ := startTracedServer(t)
	for i := 0; i < 3; i++ {
		root := cliTr.StartRoot("deploy")
		if _, err := c.ListTasks(root.Context()); err != nil {
			t.Fatal(err)
		}
		root.Finish(nil)
	}
	dump, err := c.TraceDump(0)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Total != 3 || len(dump.Spans) != 3 {
		t.Fatalf("dump: total=%d spans=%d", dump.Total, len(dump.Spans))
	}
	for _, sp := range dump.Spans {
		if sp.Name != "dispatch:list_tasks" {
			t.Fatalf("unexpected daemon span %q", sp.Name)
		}
	}
	// Limit keeps the newest spans.
	dump, err = c.TraceDump(2)
	if err != nil || len(dump.Spans) != 2 {
		t.Fatalf("limited dump: %d spans, err=%v", len(dump.Spans), err)
	}
	if dump.Total != 3 {
		t.Fatalf("limited dump total = %d", dump.Total)
	}
}

func TestTraceRecordsRetriesAndBreakerRejections(t *testing.T) {
	ctrl := controlplane.NewController(controlplane.Config{Groups: 3, Buckets: 8192, BitWidth: 32})
	t.Cleanup(ctrl.Close)
	srv := NewServer(ctrl, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cliTr := tracing.New(64)
	c, err := DialOptions(addr, Options{
		Tracer:           cliTr,
		MaxRetries:       2,
		CallTimeout:      200 * time.Millisecond,
		DialTimeout:      200 * time.Millisecond,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close() // every attempt now fails at the transport

	root := cliTr.StartRoot("query")
	if _, err := c.ListTasks(root.Context()); err == nil {
		t.Fatal("call against a dead daemon succeeded")
	}
	root.Finish(errors.New("fleet query failed"))

	spans, _, _ := cliTr.Dump()
	attempts := spansByName(spans)["rpc:list_tasks"]
	if len(attempts) != 3 { // 1 try + MaxRetries
		t.Fatalf("attempt spans = %d, want 3 (%+v)", len(attempts), spans)
	}
	seen := map[int]bool{}
	for _, sp := range attempts {
		if sp.Err == "" {
			t.Fatalf("failed attempt span has no error: %+v", sp)
		}
		seen[sp.Attempt] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("attempt ordinals missing: %v", seen)
	}

	// The breaker opened after 3 consecutive failures; the next attempt
	// records a breaker-rejection span.
	root2 := cliTr.StartRoot("query")
	if _, err := c.ListTasks(root2.Context()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected open breaker, got %v", err)
	}
	root2.Finish(nil)
	spans, _, _ = cliTr.Dump()
	var rejected bool
	for _, sp := range spans {
		if sp.Trace == tracing.TraceID(root2.Context().Trace) && sp.Name == "rpc:list_tasks" &&
			strings.Contains(sp.Err, "circuit") {
			rejected = true
		}
	}
	if !rejected {
		t.Fatalf("no breaker-rejection span recorded: %+v", spans)
	}
}
