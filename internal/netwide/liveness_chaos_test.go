package netwide

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/faultnet"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// Chaos drills for the liveness + reconciler machinery: kill, partition
// (both ways and one-way), restart, and flap daemons while asserting
// bounded detection, damped flapping, reconciler convergence, and clean
// goroutine shutdown. Hellos run at tx=20ms so a full drill fits in
// seconds even under -race.

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

func waitSessions(t *testing.T, fleet *RemoteFleet, up bool, switches ...int) {
	t.Helper()
	state := "down"
	if up {
		state = "up"
	}
	waitFor(t, 10*time.Second, fmt.Sprintf("switches %v session %s", switches, state), func() bool {
		h := fleet.Health()
		for _, i := range switches {
			if h[i].SessionUp != up {
				return false
			}
		}
		return true
	})
}

// TestLivenessDetectsKilledDaemon is the headline acceptance drill: kill a
// fleet member and it is ejected within a small multiple of the detection
// time, partial queries keep answering (with the liveness verdict in the
// report), and the eject lands in telemetry and the journal.
func TestLivenessDetectsKilledDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, _ := resilientDaemons(t, 3, cfg)
	reg := telemetry.NewRegistry()
	tele := &reg.Fleet
	journal := telemetry.NewJournal(64)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
		AllowPartial: true,
		Telemetry:    tele,
		Journal:      journal,
	})
	t.Cleanup(fleet.Stop)
	if err := fleet.DeployEpoch(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 6_000, Seed: 33})
	for i := range tr.Packets {
		ctrls[i%3].Process(&tr.Packets[i])
	}
	if _, err := fleet.RotateEpoch("freq"); err != nil {
		t.Fatal(err)
	}

	fleet.StartLiveness(drillLiveness(1))
	waitSessions(t, fleet, true, 0, 1, 2)

	// Kill daemon 2 and time the eject. The configured detection time is
	// 3×tx = 60ms; allow generous scheduler/race headroom but stay an
	// order of magnitude under a plain RPC timeout.
	srvs[2].Close()
	killed := time.Now()
	waitSessions(t, fleet, false, 2)
	if detected := time.Since(killed); detected > 2*time.Second {
		t.Fatalf("detection took %v, want bounded (detect time is %v)", detected, drillLiveness(1).DetectTime())
	}

	// Partial query still answers, with the liveness verdict for switch 2.
	key := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	_, report, err := fleet.EstimateKeyEpoch("freq", 1, key, EpochQuery{})
	if err != nil {
		t.Fatalf("partial query with ejected switch: %v", err)
	}
	if !report.Partial() || len(report.Contributed) != 2 {
		t.Fatalf("report = %+v", report)
	}
	if msg := report.Failed[2]; msg == "" || !strings.Contains(msg, "liveness") {
		t.Fatalf("failure for switch 2 = %q, want a liveness eject", msg)
	}

	// Health is liveness-primary: down without a single op having failed.
	h := fleet.Health()
	if h[2].State != SwitchDown || h[2].Session == SessionNone {
		t.Fatalf("switch 2 health = %+v", h[2])
	}
	if h[0].State != SwitchHealthy || h[1].State != SwitchHealthy {
		t.Fatalf("healthy switches misreported: %+v %+v", h[0], h[1])
	}

	// The eject is observable: transition counters, detection histogram,
	// session gauges, and a journal event.
	if tele.Ejects.Load() == 0 || tele.SessionToDown.Load() == 0 {
		t.Fatalf("ejects=%d to_down=%d, want both > 0", tele.Ejects.Load(), tele.SessionToDown.Load())
	}
	if tele.DetectionTime.Count() == 0 {
		t.Fatal("detection-time histogram is empty")
	}
	var sessions []telemetry.Sample
	for _, f := range reg.Report().Families {
		if f.Name == "flymon_fleet_session_state" {
			sessions = f.Samples
		}
	}
	if len(sessions) != 3 || sessions[2].Value == 2 { // 2 = up
		t.Fatalf("session gauges = %+v", sessions)
	}
	ejects := 0
	for _, e := range journal.Events() {
		if e.Kind == "eject" {
			ejects++
		}
	}
	if ejects == 0 {
		t.Fatal("no eject event journaled")
	}
}

// TestReconcilerRedeploysAfterRestart is the full self-healing loop: a
// daemon dies, is ejected, restarts EMPTY, rejoins via its session, and
// the reconciler puts its plain tasks back — all with zero operator action,
// all visible in the journal. Epoch tasks are not reconciled: the rejoined
// switch answers the fleet's epoch reads again, without the task.
func TestReconcilerRedeploysAfterRestart(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	_, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
	tele := &telemetry.FleetStats{}
	journal := telemetry.NewJournal(128)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
		AllowPartial: true,
		Telemetry:    tele,
		Journal:      journal,
	})
	t.Cleanup(fleet.Stop)
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}

	fleet.StartLiveness(drillLiveness(2))
	fleet.StartReconciler(50 * time.Millisecond)
	waitSessions(t, fleet, true, 0, 1)

	// Crash daemon 1; it must be ejected but the fleet keeps answering.
	srvs[1].Close()
	waitSessions(t, fleet, false, 1)
	ep, err := fleet.RotateEpoch("ep")
	if err != nil {
		t.Fatal(err)
	}
	if _, report, err := fleet.EstimateKeyEpoch("ep", ep, packet.CanonicalKey{1}, EpochQuery{}); err != nil || !report.Partial() {
		t.Fatalf("partial query during outage: %v %+v", err, report)
	}

	// Restart it from scratch (fresh controller, same address): the rejoin
	// pokes the reconciler, which re-deploys the task at its pinned ID.
	restarted := controlplane.NewController(cfg)
	srv := rpc.NewServer(restarted, nil)
	if _, err := srv.Listen(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	waitSessions(t, fleet, true, 1)
	waitFor(t, 10*time.Second, "reconciler to re-deploy the task", func() bool {
		tasks := restarted.Tasks()
		return len(tasks) == 1 && tasks[0].ID == 1 && tasks[0].Spec.Name == "freq"
	})

	// The fleet addresses the restarted switch again: its copy of the plain
	// task, read through the ID the reconciler recorded, is laid out as the
	// mirror's; and an epoch read reaches it (no liveness eject) to find the
	// epoch task gone with the old process.
	if err := mirrorLayoutEverywhere(fleet, clients, "freq"); err != nil {
		t.Fatalf("restarted switch's freq: %v", err)
	}
	ep, err = fleet.RotateEpoch("ep")
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := fleet.EstimateKeyEpoch("ep", ep, packet.CanonicalKey{1}, EpochQuery{})
	if msg := report.Failed[1]; err != nil || !strings.Contains(msg, "no epoch task") {
		t.Fatalf("epoch read after rejoin: %v, switch 1 %q", err, msg)
	}

	// Every stage of the loop is journaled.
	kinds := map[string]int{}
	for _, e := range journal.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{"eject", "rejoin", "redeploy"} {
		if kinds[k] == 0 {
			t.Fatalf("journal missing %q events: %v", k, kinds)
		}
	}
	if tele.Rejoins.Load() == 0 || tele.Redeploys.Load() == 0 {
		t.Fatalf("rejoins=%d redeploys=%d, want both > 0", tele.Rejoins.Load(), tele.Redeploys.Load())
	}
	h := fleet.Health()
	if h[1].TasksDesired != 1 || h[1].TasksObserved != 1 {
		t.Fatalf("switch 1 task counts = %d/%d, want 1/1", h[1].TasksObserved, h[1].TasksDesired)
	}
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

// mirrorLayoutEverywhere checks that every switch holds the plain task,
// read through the ID the fleet recorded for it, laid out as the mirror's.
// The IDs are copied under the fleet lock: a running reconciler rewrites
// them.
func mirrorLayoutEverywhere(fleet *RemoteFleet, clients []*rpc.Client, name string) error {
	fleet.mu.Lock()
	t := fleet.tasks[name]
	remote, fingerprint := append([]int(nil), t.remote...), t.fingerprint
	fleet.mu.Unlock()
	for i, c := range clients {
		regs, err := c.ReadRegisters(remote[i])
		if err != nil {
			return fmt.Errorf("switch %d: %w", i, err)
		}
		if regs.Fingerprint != fingerprint {
			return fmt.Errorf("switch %d: fingerprint %x, mirror %x", i, regs.Fingerprint, fingerprint)
		}
	}
	return nil
}

// TestChaosLivenessMatrix drives the fault matrix from the issue —
// symmetric partition, asymmetric (one-way) partition, restart storm,
// flapping link — across seeds, asserting detection, convergence after
// heal, an intact healthy switch, and no goroutine leaks.
func TestChaosLivenessMatrix(t *testing.T) {
	type drill struct {
		name string
		run  func(t *testing.T, fleet *RemoteFleet, gate *faultnet.Gate, reboot func() *rpc.Server)
	}
	drills := []drill{
		{"partition", func(t *testing.T, fleet *RemoteFleet, gate *faultnet.Gate, _ func() *rpc.Server) {
			gate.Partition()
			waitSessions(t, fleet, false, 1)
			gate.Heal()
		}},
		{"asymmetric", func(t *testing.T, fleet *RemoteFleet, gate *faultnet.Gate, _ func() *rpc.Server) {
			// One-way blackhole: the daemon still HEARS the controller (its
			// reads work) but its answers vanish. RPC-wise the daemon looks
			// "half-alive"; the session must still declare it down.
			gate.SetDropWrites(true)
			waitSessions(t, fleet, false, 1)
			gate.SetDropWrites(false)
		}},
		{"restart-storm", func(t *testing.T, fleet *RemoteFleet, _ *faultnet.Gate, reboot func() *rpc.Server) {
			// Three back-to-back empty restarts: each new process has a
			// fresh incarnation, so even a fast bounce between probes is
			// unmasked, and only the reconciler puts the plain task back.
			for i := 0; i < 3; i++ {
				reboot()
				time.Sleep(3 * drillTx)
			}
		}},
		{"flapping", func(t *testing.T, fleet *RemoteFleet, gate *faultnet.Gate, _ func() *rpc.Server) {
			for i := 0; i < 3; i++ {
				gate.Partition()
				waitSessions(t, fleet, false, 1)
				gate.Heal()
				waitSessions(t, fleet, true, 1)
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
				ctrl0 := controlplane.NewController(cfg)
				srv0 := rpc.NewServer(ctrl0, nil)
				addr0, err := srv0.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv0.Close() })
				_, gate, addr1, reboot := gatedDaemon(t, cfg, seed)

				var clients []*rpc.Client
				for i, addr := range []string{addr0, addr1} {
					c, err := rpc.DialOptions(addr, rpc.Options{
						DialTimeout:      time.Second,
						CallTimeout:      time.Second,
						MaxRetries:       -1,
						BreakerThreshold: 1000,
						Seed:             seed*10 + int64(i),
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					clients = append(clients, c)
				}
				tele := &telemetry.FleetStats{}
				fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
					AllowPartial: true,
					Telemetry:    tele,
					Journal:      telemetry.NewJournal(128),
				})
				t.Cleanup(fleet.Stop)
				if err := fleet.Deploy(cmsSpec("freq")); err != nil {
					t.Fatal(err)
				}
				fleet.StartLiveness(drillLiveness(seed))
				fleet.StartReconciler(50 * time.Millisecond)
				waitSessions(t, fleet, true, 0, 1)

				d.run(t, fleet, gate, reboot)

				// Convergence: both switches Up again (flap damping may hold
				// switch 1 out for its hold-down first — that wait is part of
				// the contract), the plain task back everywhere with the
				// mirror's layout, and an epoch task deployed, rotated and read
				// on the whole fleet. (A restarted daemon drops its epoch
				// tasks, so it is deployed after the drill.)
				waitSessions(t, fleet, true, 0, 1)
				deployed := false
				waitFor(t, 10*time.Second, "post-drill full-fleet query", func() bool {
					if mirrorLayoutEverywhere(fleet, clients, "freq") != nil {
						return false
					}
					if !deployed {
						if deployed = fleet.DeployEpoch(cmsSpec("ep")) == nil; !deployed {
							return false
						}
					}
					ep, err := fleet.RotateEpoch("ep")
					if err != nil {
						return false
					}
					_, report, err := fleet.EstimateKeyEpoch("ep", ep, packet.CanonicalKey{1}, EpochQuery{Policy: StragglerSkip})
					return err == nil && !report.Partial()
				})
				// The healthy switch never flapped: zero ejects of switch 0.
				h := fleet.Health()
				if !h[0].SessionUp || h[0].Session != SessionUp {
					t.Fatalf("healthy switch 0 disturbed: %+v", h[0])
				}
				if h[0].TotalFailures != 0 {
					t.Fatalf("healthy switch 0 accumulated %d op failures", h[0].TotalFailures)
				}
			})
		}
	}
}
