package netwide

import (
	"fmt"
	"net"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/rpc"
)

// Chaos drills for the liveness sessions against real daemons: kill,
// partition (both ways and one-way), restart, and flap them while asserting
// bounded detection, damped flapping, recovery after heal, an undisturbed
// healthy switch, and clean goroutine shutdown. The manager is the
// standalone one flymonctl watch runs. Hellos run at tx=20ms so a full
// drill fits in seconds even under -race.

const drillTx = 20 * time.Millisecond

func drillLiveness(seed int64) LivenessOptions {
	return LivenessOptions{
		TxInterval: drillTx,
		DetectMult: 3,
		Seed:       seed,
	}
}

// waitFor polls cond every few ms until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startLiveness runs a manager over addrs, stopped with the test.
func startLiveness(t *testing.T, addrs []string, seed int64) *LivenessManager {
	t.Helper()
	m := NewLivenessManager(addrs, drillLiveness(seed))
	m.Start()
	t.Cleanup(m.Stop)
	return m
}

// waitSessions waits until every named switch's session is reported Up
// (up) or not (!up).
func waitSessions(t *testing.T, m *LivenessManager, up bool, switches ...int) {
	t.Helper()
	state := "down"
	if up {
		state = "up"
	}
	waitFor(t, 10*time.Second, fmt.Sprintf("switches %v session %s", switches, state), func() bool {
		snap := m.Snapshot()
		for _, i := range switches {
			if snap[i].ReportedUp != up {
				return false
			}
		}
		return true
	})
}

// TestLivenessDetectsKilledDaemon is the headline acceptance drill: kill a
// daemon and its session goes Down within a small multiple of the
// detection time, while the live daemons' sessions stay Up untouched;
// restart it and the session comes back Up under the new process's
// incarnation.
func TestLivenessDetectsKilledDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, _, srvs, addrs := resilientDaemons(t, 3, cfg)
	m := startLiveness(t, addrs, 1)
	waitSessions(t, m, true, 0, 1, 2)
	before := m.Snapshot()

	// Kill daemon 2 and time the detection. The configured detection time
	// is 3×tx = 60ms; allow generous scheduler/race headroom but stay an
	// order of magnitude under a plain RPC timeout.
	srvs[2].Close()
	killed := time.Now()
	waitSessions(t, m, false, 2)
	if detected := time.Since(killed); detected > 2*time.Second {
		t.Fatalf("detection took %v, want bounded (detect time is %v)", detected, drillLiveness(1).DetectTime())
	}
	snap := m.Snapshot()
	if s := snap[2]; s.State != SessionDown || s.LastTransition.Sub(s.LastReply) < s.DetectTime {
		t.Fatalf("switch 2 = %+v, want Down no sooner than the detect time after its last reply", s)
	}
	for i := 0; i < 2; i++ {
		if s := snap[i]; !s.ReportedUp || s.Transitions != before[i].Transitions {
			t.Fatalf("live switch %d disturbed: %+v (was %+v)", i, s, before[i])
		}
	}

	// Restart it as a fresh process on the same address: a new incarnation,
	// and the session completes its handshake again.
	restartEmpty(t, 2, cfg, ctrls, srvs, addrs)
	waitSessions(t, m, true, 2)
	if got := m.Snapshot()[2].Incarnation; got == before[2].Incarnation || got != srvs[2].Incarnation() {
		t.Fatalf("switch 2 incarnation = %d, want the restarted server's %d (was %d)", got, srvs[2].Incarnation(), before[2].Incarnation)
	}
}

// restartEmpty replaces daemon i with a fresh controller of configuration cfg
// on the same address: a crash that lost every task.
func restartEmpty(t *testing.T, i int, cfg controlplane.Config, ctrls []*controlplane.Controller, srvs []*rpc.Server, addrs []string) {
	t.Helper()
	srvs[i].Close()
	ctrls[i] = controlplane.NewController(cfg)
	srvs[i] = rpc.NewServer(ctrls[i], nil)
	if _, err := srvs[i].Listen(addrs[i]); err != nil {
		t.Fatal(err)
	}
	srv := srvs[i]
	t.Cleanup(func() { srv.Close() })
}

// gatedDaemon boots one daemon whose accepted connections pass through a
// faultnet.Gate, so drills can partition/heal/flap it at runtime. reboot
// restarts it empty on the same address: a fresh server over a fresh
// controller (the returned controller is the first process's).
func gatedDaemon(t *testing.T, cfg controlplane.Config, seed int64) (*controlplane.Controller, *faultnet.Gate, string, func() *rpc.Server) {
	t.Helper()
	ctrl := controlplane.NewController(cfg)
	gate := &faultnet.Gate{}
	plan := faultnet.Plan{Seed: seed, Gate: gate}
	var addr string
	boot := func() *rpc.Server {
		srv := rpc.NewServer(ctrl, nil)
		listenAt := addr
		if listenAt == "" {
			listenAt = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", listenAt)
		if err != nil {
			t.Fatalf("listen %s: %v", listenAt, err)
		}
		addr = ln.Addr().String()
		srv.Serve(faultnet.WrapListener(ln, plan))
		return srv
	}
	cur := boot()
	t.Cleanup(func() { cur.Close() })
	reboot := func() *rpc.Server {
		cur.Close() // free the address before rebinding it
		ctrl = controlplane.NewController(cfg)
		cur = boot()
		return cur
	}
	return ctrl, gate, addr, reboot
}

// TestChaosLivenessMatrix drives the fault matrix — symmetric partition,
// asymmetric (one-way) partition, restart storm, flapping link — across
// seeds, asserting detection, recovery after heal (through flap damping's
// hold-down where it arms), an undisturbed healthy switch, and no goroutine
// leaks.
func TestChaosLivenessMatrix(t *testing.T) {
	type drill struct {
		name string
		run  func(t *testing.T, m *LivenessManager, gate *faultnet.Gate, reboot func() *rpc.Server)
	}
	drills := []drill{
		{"partition", func(t *testing.T, m *LivenessManager, gate *faultnet.Gate, _ func() *rpc.Server) {
			gate.Partition()
			waitSessions(t, m, false, 1)
			gate.Heal()
		}},
		{"asymmetric", func(t *testing.T, m *LivenessManager, gate *faultnet.Gate, _ func() *rpc.Server) {
			// One-way blackhole: the daemon still HEARS the prober (its
			// reads work) but its answers vanish. RPC-wise the daemon looks
			// "half-alive"; the session must still declare it down.
			gate.SetDropWrites(true)
			waitSessions(t, m, false, 1)
			gate.SetDropWrites(false)
		}},
		{"restart-storm", func(t *testing.T, m *LivenessManager, _ *faultnet.Gate, reboot func() *rpc.Server) {
			// Three back-to-back empty restarts: each new process has a
			// fresh incarnation, so even a fast bounce between probes is
			// unmasked, and the session ends on the last one's.
			var srv *rpc.Server
			for i := 0; i < 3; i++ {
				srv = reboot()
				time.Sleep(3 * drillTx)
			}
			waitFor(t, 10*time.Second, "the last incarnation", func() bool {
				return m.Snapshot()[1].Incarnation == srv.Incarnation()
			})
		}},
		{"flapping", func(t *testing.T, m *LivenessManager, gate *faultnet.Gate, _ func() *rpc.Server) {
			for i := 0; i < 3; i++ {
				gate.Partition()
				waitSessions(t, m, false, 1)
				gate.Heal()
				waitSessions(t, m, true, 1)
			}
		}},
	}
	for _, d := range drills {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", d.name, seed), func(t *testing.T) {
				check := gateFleetGoroutines(t)
				t.Cleanup(check)
				cfg := fleetConfig()
				// Switch 0: plain healthy daemon. Switch 1: behind the gate.
				srv0 := rpc.NewServer(controlplane.NewController(cfg), nil)
				addr0, err := srv0.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv0.Close() })
				_, gate, addr1, reboot := gatedDaemon(t, cfg, seed)

				m := startLiveness(t, []string{addr0, addr1}, seed)
				waitSessions(t, m, true, 0, 1)
				before := m.Snapshot()

				d.run(t, m, gate, reboot)

				// Recovery: both switches Up again (flap damping may hold
				// switch 1 out for its hold-down first — that wait is part
				// of the contract), and switch 1's session went through Down
				// on the way.
				waitSessions(t, m, true, 0, 1)
				snap := m.Snapshot()
				if snap[1].Transitions <= before[1].Transitions {
					t.Fatalf("switch 1 never left Up: %+v", snap[1])
				}
				// The healthy switch never flapped.
				if s := snap[0]; s.State != SessionUp || s.Transitions != before[0].Transitions || s.Incarnation != srv0.Incarnation() {
					t.Fatalf("healthy switch 0 disturbed: %+v (was %+v)", s, before[0])
				}
			})
		}
	}
}
