package netwide

import (
	"net"
	"strings"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
	"flymon/internal/tracing"
)

// findTree returns the newest assembled tree whose root operation has the
// given name and whose root detail contains want ("" matches any).
func findTree(trees []*tracing.Tree, op, want string) *tracing.Tree {
	for _, tr := range trees {
		if tr.Root == nil || tr.Root.Span.Name != op {
			continue
		}
		if want != "" && !strings.Contains(tr.Root.Span.Detail, want) {
			continue
		}
		return tr
	}
	return nil
}

// childrenNamed returns root's direct children with the given span name.
func childrenNamed(n *tracing.Node, name string) []*tracing.Node {
	var out []*tracing.Node
	for _, c := range n.Children {
		if c.Span.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// hasDescendant reports whether any node under n (n excluded) has the name.
func hasDescendant(n *tracing.Node, name string) bool {
	for _, c := range n.Children {
		if c.Span.Name == name || hasDescendant(c, name) {
			return true
		}
	}
	return false
}

// TestChaosTraceStragglerCriticalPath is the end-to-end tracing drill: a
// traced fleet (controller tracer + a span buffer per daemon) deploys an
// epoch task, loses switch 2 behind a faultnet partition during a
// rotation, heals, and runs a wait-policy epoch query that blocks on the
// straggler until a mid-wait catch-up. The assembled trees must be
// causally complete — controller root, per-switch fan-out spans,
// client-side RPC attempt spans, daemon-side dispatch and controlplane
// spans, merge spans — and the query's critical-path breakdown must name
// the slow switch.
func TestChaosTraceStragglerCriticalPath(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()

	var (
		ctrls []*controlplane.Controller
		addrs []string
	)
	for i := 0; i < 2; i++ {
		ctrl := controlplane.NewController(cfg)
		srv := rpc.NewServer(ctrl, nil)
		srv.SetTracer(tracing.New(0))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ctrls = append(ctrls, ctrl)
		addrs = append(addrs, addr)
	}
	// Switch 2 sits behind a faultnet gate so the drill can partition it.
	ctrl2 := controlplane.NewController(cfg)
	gate := &faultnet.Gate{}
	srv2 := rpc.NewServer(ctrl2, nil)
	srv2.SetTracer(tracing.New(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2.Serve(faultnet.WrapListener(ln, faultnet.Plan{Seed: 7, Gate: gate}))
	t.Cleanup(func() { srv2.Close() })
	ctrls = append(ctrls, ctrl2)
	addrs = append(addrs, ln.Addr().String())

	var clients []*rpc.Client
	for i, addr := range addrs {
		c, err := rpc.DialOptions(addr, rpc.Options{
			DialTimeout:      500 * time.Millisecond,
			CallTimeout:      500 * time.Millisecond,
			MaxRetries:       -1,
			BreakerThreshold: 1000,
			Seed:             int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
	}
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
		AllowPartial: true,
		Tracer:       tracing.New(0),
	})

	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	tr1 := trace.Generate(trace.Config{Flows: 200, Packets: 6_000, ZipfS: 1.1, Seed: 11})
	for i := range tr1.Packets {
		ctrls[i%3].Process(&tr1.Packets[i])
	}
	if ep, err := fleet.RotateEpoch("ep"); err != nil || ep != 1 {
		t.Fatalf("healthy rotation: epoch %d err %v", ep, err)
	}

	// Partition switch 2, flush the one request the parked handler still
	// delivers, rotate: the decree to switch 2 is lost and it falls behind.
	gate.Partition()
	if _, err := clients[2].ReadEpoch("ep", 1); err == nil {
		t.Fatal("probe through a partitioned gate must fail")
	}
	if ep, err := fleet.RotateEpoch("ep"); err != nil || ep != 2 {
		t.Fatalf("partitioned rotation: epoch %d err %v", ep, err)
	}
	gate.Heal()

	// Wait-policy query blocks on the straggler; catch it up mid-wait.
	type qres struct {
		report QueryReport
		err    error
	}
	done := make(chan qres, 1)
	go func() {
		_, report, err := fleet.QueryEpochRows("ep", 2, EpochQuery{Wait: 8 * time.Second})
		done <- qres{report, err}
	}()
	time.Sleep(150 * time.Millisecond)
	if _, err := clients[2].EpochRotate("ep", 2); err != nil {
		t.Fatalf("manual straggler catch-up: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("wait query after catch-up: %v", r.err)
	}
	if len(r.report.Contributed) != 3 || r.report.Partial() {
		t.Fatalf("caught-up report = %v", r.report)
	}

	trees, terrs := fleet.CollectTrace(0)
	if len(terrs) != 0 {
		t.Fatalf("CollectTrace errors = %v", terrs)
	}

	// Deploy tree: causally complete across all three layers on every
	// switch — controller root → switch fan-out → client RPC attempt →
	// daemon dispatch → controlplane mutation.
	dt := findTree(trees, "epoch_deploy", "")
	if dt == nil {
		t.Fatalf("no epoch_deploy tree among %d trees", len(trees))
	}
	if len(dt.Orphans) != 0 {
		t.Fatalf("epoch_deploy tree has %d orphan span(s): causally incomplete", len(dt.Orphans))
	}
	sws := childrenNamed(dt.Root, "switch")
	if len(sws) != 3 {
		t.Fatalf("epoch_deploy has %d switch spans, want 3", len(sws))
	}
	seen := map[int]bool{}
	for _, sw := range sws {
		seen[sw.Span.Switch] = true
		rpcs := childrenNamed(sw, "rpc:epoch_deploy")
		if len(rpcs) == 0 {
			t.Fatalf("switch %d deploy span has no rpc:epoch_deploy child", sw.Span.Switch)
		}
		if !hasDescendant(rpcs[0], "dispatch:epoch_deploy") {
			t.Fatalf("switch %d rpc span has no daemon-side dispatch span", sw.Span.Switch)
		}
		if !hasDescendant(rpcs[0], "controlplane:epoch_deploy") {
			t.Fatalf("switch %d rpc span has no controlplane mutation span", sw.Span.Switch)
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("deploy switch spans cover %v, want 0..2", seen)
	}

	// Partitioned rotation tree: switch 2's decree failed and the trace
	// says so.
	rt := findTree(trees, "epoch_rotate", "to epoch 2")
	if rt == nil {
		t.Fatal("no epoch_rotate tree for the partitioned rotation")
	}
	var rotFailed bool
	for _, sw := range childrenNamed(rt.Root, "switch") {
		if sw.Span.Switch == 2 && sw.Span.Err != "" {
			rotFailed = true
		}
	}
	if !rotFailed {
		t.Fatal("partitioned rotation trace does not record switch 2's lost decree")
	}

	// Query tree: the straggler wait is a span under switch 2, the merge
	// span is tagged with the leaf it waited on, and the critical-path
	// breakdown names the slow switch.
	qt := findTree(trees, "epoch_query", "epoch=2")
	if qt == nil {
		t.Fatal("no epoch_query tree")
	}
	if len(qt.Orphans) != 0 {
		t.Fatalf("epoch_query tree has %d orphan span(s)", len(qt.Orphans))
	}
	qsws := childrenNamed(qt.Root, "switch")
	if len(qsws) != 3 {
		t.Fatalf("epoch_query has %d switch spans, want 3", len(qsws))
	}
	var waited bool
	for _, sw := range qsws {
		if sw.Span.Switch != 2 {
			continue
		}
		for _, c := range childrenNamed(sw, "straggler_wait") {
			if c.Span.Err == "" && strings.Contains(c.Span.Detail, "caught up") {
				waited = true
			}
		}
	}
	if !waited {
		t.Fatal("no successful straggler_wait span under switch 2")
	}
	merges := childrenNamed(qt.Root, "merge")
	if len(merges) != 1 {
		t.Fatalf("epoch_query has %d merge spans, want 1", len(merges))
	}
	if got := merges[0].Span.Switch; got != 2 {
		t.Fatalf("merge span waited on sw-%d, want the straggler sw-2", got)
	}
	if len(childrenNamed(merges[0], "merge:kernel")) == 0 {
		t.Fatal("merge span has no kernel children")
	}
	if bd := qt.Breakdown(); !strings.Contains(bd, "on sw-2") {
		t.Fatalf("critical path %q does not name the slow switch", bd)
	}

	// The assembled trees carry spans from four buffers; every daemon
	// contributed (each ran at least the deploy dispatch).
	for i, c := range clients {
		dump, err := c.TraceDump(0)
		if err != nil {
			t.Fatalf("trace_dump on %d: %v", i, err)
		}
		if len(dump.Spans) == 0 {
			t.Fatalf("daemon %d recorded no spans", i)
		}
		if dump.Dropped != 0 {
			t.Fatalf("daemon %d dropped %d spans in a short drill", i, dump.Dropped)
		}
	}
}
