package netwide

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/trace"
)

// resilientDaemons boots n daemons and returns controllers, clients tuned
// for fast failure detection, servers (for killing/restarting), and addrs.
func resilientDaemons(t *testing.T, n int, cfg controlplane.Config) ([]*controlplane.Controller, []*rpc.Client, []*rpc.Server, []string) {
	t.Helper()
	ctrls := make([]*controlplane.Controller, n)
	clients := make([]*rpc.Client, n)
	srvs := make([]*rpc.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ctrls[i] = controlplane.NewController(cfg)
		srvs[i] = rpc.NewServer(ctrls[i], nil)
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		srv := srvs[i]
		t.Cleanup(func() { srv.Close() })
		c, err := rpc.DialOptions(addr, rpc.Options{
			DialTimeout:      time.Second,
			CallTimeout:      2 * time.Second,
			MaxRetries:       -1,
			BackoffBase:      5 * time.Millisecond,
			BackoffMax:       50 * time.Millisecond,
			BreakerThreshold: 1000, // fleet tests manage failure counts themselves
			Seed:             int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return ctrls, clients, srvs, addrs
}

func gateFleetGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if now := runtime.NumGoroutine(); now <= before+2 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

func TestFleetPartialQueryWithDaemonDown(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, _ := resilientDaemons(t, 3, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true, DownAfter: 2})
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}

	// The same traffic in two epochs: epoch 1 is rotated and read while the
	// fleet is whole, epoch 2 rotated after daemon 2 died.
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 9_000, Seed: 21})
	feed := func() {
		for i := range tr.Packets {
			ctrls[i%3].Process(&tr.Packets[i])
		}
	}
	feed()
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatal(err)
	}

	// Healthy fleet: full merge, nothing missing.
	key := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	full, report, err := fleet.EstimateKeyEpoch("freq", 1, key, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Partial() || len(report.Contributed) != 3 {
		t.Fatalf("healthy report = %+v", report)
	}

	// Kill daemon 2, then end epoch 2: the rotation collects two switches of
	// three, so it stores nothing, and the query degrades instead of failing.
	feed()
	srvs[2].Close()
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatalf("partial rotation with one daemon down: %v", err)
	}
	part, report, err := fleet.EstimateKeyEpoch("freq", 2, key, EpochQuery{})
	if err != nil {
		t.Fatalf("partial query with one daemon down: %v", err)
	}
	if !report.Partial() {
		t.Fatal("report must be marked partial")
	}
	if len(report.Contributed) != 2 || report.Contributed[0] != 0 || report.Contributed[1] != 1 {
		t.Fatalf("contributed = %v, want [0 1]", report.Contributed)
	}
	if _, ok := report.Failed[2]; !ok {
		t.Fatalf("failed set = %v, want switch 2", report.Failed)
	}
	if part > full {
		t.Fatalf("partial merge %d exceeds full merge %d — not a lower bound", part, full)
	}

	// Health: repeated failures march switch 2 degraded → down (a partial
	// merge is never stored, so the retry asks the fleet again).
	if _, report, err := fleet.EstimateKeyEpoch("freq", 2, key, EpochQuery{}); err != nil || report.Cached {
		t.Fatalf("second partial query: %v, report %+v", err, report)
	}
	h := fleet.Health()
	if h[0].State != SwitchHealthy || h[1].State != SwitchHealthy {
		t.Fatalf("healthy switches misreported: %+v", h)
	}
	if h[2].State != SwitchDown {
		t.Fatalf("switch 2 state = %v after %d consecutive failures", h[2].State, h[2].ConsecutiveFailures)
	}
	if h[2].LastError == "" || h[2].ConsecutiveFailures < 2 {
		t.Fatalf("switch 2 health detail = %+v", h[2])
	}
}

func TestFleetStrictModeFailsOnDownDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	_, clients, srvs, _ := resilientDaemons(t, 2, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{}) // AllowPartial off
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	// The rotation reaches one daemon of two: it fails, stores nothing, and
	// the query reads the switches.
	srvs[1].Close()
	if _, err := fleet.RotateEpoch("freq"); err == nil {
		t.Fatal("strict fleet must fail a rotation that misses a daemon")
	}
	if _, _, err := fleet.EstimateKeyEpoch("freq", 1, packet.CanonicalKey{1}, EpochQuery{}); err == nil {
		t.Fatal("strict fleet must fail when a daemon is down")
	}
}

func TestFleetRemoveKeepsHandleOnPartialFailure(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, _, addrs := resilientDaemons(t, 2, cfg)
	// The fleet reaches daemon 1 over a gated link: partitioned, the daemon
	// and the epoch task it holds survive, as behind a broken cable.
	gate := &faultnet.Gate{}
	dialer := &faultnet.Dialer{Plan: faultnet.Plan{Gate: gate}, Timeout: time.Second}
	c1, err := rpc.DialOptions(addrs[1], rpc.Options{
		Dialer:      func(addr string, _ time.Duration) (net.Conn, error) { return dialer.Dial("tcp", addr) },
		CallTimeout: 200 * time.Millisecond, MaxRetries: -1, BreakerThreshold: 1000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	clients[1] = c1
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}

	// Daemon 1 is cut off; the removal must fail with a structured error
	// naming it, and KEEP the task's row so removal can be retried.
	gate.Partition()
	err = fleet.RemoveEpochTask("freq")
	var pf *PartialFailureError
	if !errors.As(err, &pf) {
		t.Fatalf("remove error = %v (%T), want PartialFailureError", err, err)
	}
	if got := pf.Stragglers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("stragglers = %v, want [1]", got)
	}
	if len(ctrls[0].Tasks()) != 0 {
		t.Fatal("reachable daemon 0 should have removed its task")
	}
	if len(ctrls[1].Tasks()) != 1 {
		t.Fatal("daemon 1 must still hold the stranded task")
	}

	// The link heals: the retry only needs the straggler — daemon 0 is not
	// asked again.
	gate.Heal()
	if err := fleet.RemoveEpochTask("freq"); err != nil {
		t.Fatalf("retry remove: %v", err)
	}
	if len(ctrls[1].Tasks()) != 0 {
		t.Fatal("stranded task not removed on retry")
	}
	// The row is gone only now.
	if err := fleet.RemoveEpochTask("freq"); err == nil {
		t.Fatal("third remove must report no task")
	}
}

func TestFleetOpTimeoutBoundsHungDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, _ := resilientDaemons(t, 2, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
		AllowPartial: true,
		OpTimeout:    300 * time.Millisecond,
	})
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}

	// Replace daemon 1 with a tarpit: accepts, never answers. The client's
	// own CallTimeout is 2s, but the fleet-level deadline must cut the
	// rotation and the query short at 300ms.
	srvs[1].Close()
	ln, err := net.Listen("tcp", clients[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	start := time.Now()
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatalf("partial rotation against tarpit: %v", err)
	}
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("fleet deadline not applied: rotation took %v", el)
	}
	start = time.Now()
	// Skip: a hung daemon is no straggler, and the fan-out deadline is
	// then OpTimeout alone, with no straggler wait on top.
	_, report, err := fleet.EstimateKeyEpoch("freq", 1, packet.CanonicalKey{1}, EpochQuery{Policy: StragglerSkip})
	if err != nil {
		t.Fatalf("partial query against tarpit: %v", err)
	}
	if el := time.Since(start); el > 1500*time.Millisecond {
		t.Fatalf("fleet deadline not applied: query took %v", el)
	}
	if !report.Partial() || len(report.Contributed) != 1 {
		t.Fatalf("report = %+v", report)
	}
	_ = ctrls
}

func TestFleetDeployRollsBackOnUnreachableDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, _ := resilientDaemons(t, 3, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	srvs[2].Close()
	if err := fleet.DeployEpoch(cmsSpec("freq")); err == nil {
		t.Fatal("deploy with a dead daemon must fail (deploys are all-or-nothing)")
	}
	for i := 0; i < 2; i++ {
		if len(ctrls[i].Tasks()) != 0 {
			t.Fatalf("daemon %d kept tasks after rolled-back deploy", i)
		}
	}
	// The name is free for a later retry once the fleet is whole.
	h := fleet.Health()
	if h[2].State == SwitchHealthy {
		t.Fatal("dead daemon must not be reported healthy")
	}
}
