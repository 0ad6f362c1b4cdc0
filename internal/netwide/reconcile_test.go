package netwide

import (
	"errors"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
)

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

// TestReconcileRedeploysWipedDaemon is the core self-healing property: a
// daemon that crashed and restarted EMPTY gets its tasks back, laid out the
// way the mirror lays them out — under whatever IDs the daemon hands out,
// here after a deploy the fleet rolled back had burnt one — and the next
// plain Deploy stays aligned on every switch.
func TestReconcileRedeploysWipedDaemon(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
	tele := &telemetry.FleetStats{}
	journal := telemetry.NewJournal(64)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{
		AllowPartial: true,
		Telemetry:    tele,
		Journal:      journal,
	})

	for _, name := range []string{"a", "b"} {
		if err := fleet.Deploy(cmsSpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	// Out of band, daemon 1 burns an ID: after its restart the fleet's tasks
	// come back under other IDs than daemon 0 holds them under.
	restartEmpty(t, 1, cfg, ctrls, srvs, addrs)
	burnt, err := ctrls[1].AddTask(cmsSpec("burnt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrls[1].RemoveTask(burnt.ID); err != nil {
		t.Fatal(err)
	}

	res := fleet.Reconcile()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Redeployed != 2 {
		t.Fatalf("redeployed = %d, want 2 (a and b)", res.Redeployed)
	}
	for _, name := range []string{"a", "b"} {
		want, _ := ctrls[0].Task(fleet.tasks[name].remote[0])
		got, err := ctrls[1].Task(fleet.tasks[name].remote[1])
		if err != nil || got.Spec.Name != name || got.Fingerprint != want.Fingerprint || got.ID == want.ID {
			t.Fatalf("restarted daemon holds %q as %+v (%v), daemon 0 as %+v", name, got, err, want)
		}
	}
	if h := fleet.Health()[1]; h.TasksDesired != 2 || h.TasksObserved != 2 {
		t.Fatalf("switch 1 task counts = %d/%d, want 2/2", h.TasksObserved, h.TasksDesired)
	}

	// A second pass is idempotent: nothing left to repair.
	res = fleet.Reconcile()
	if res.Redeployed != 0 || res.Err() != nil {
		t.Fatalf("second pass not clean: %+v", res)
	}

	// The next fleet-wide Deploy lands aligned everywhere, and every task
	// reads back through each switch's own ID laid out as the mirror's.
	if err := fleet.Deploy(cmsSpec("d")); err != nil {
		t.Fatalf("deploy after reconcile: %v", err)
	}
	for _, name := range []string{"a", "b", "d"} {
		ft := fleet.tasks[name]
		for i, c := range clients {
			if regs, err := c.ReadRegisters(ft.remote[i]); err != nil || regs.Fingerprint != ft.fingerprint {
				t.Fatalf("switch %d's %q after reconcile: %v (fingerprint %x, mirror %x)", i, name, err, regs.Fingerprint, ft.fingerprint)
			}
		}
	}

	if got := tele.Redeploys.Load(); got != 2 {
		t.Fatalf("telemetry redeploys = %d, want 2", got)
	}
	redeploys := 0
	for _, e := range journal.Events() {
		if e.Kind == "redeploy" && e.OK {
			redeploys++
		}
	}
	if redeploys != 2 {
		t.Fatalf("journal redeploy events = %d, want 2", redeploys)
	}
}

// TestReconcileCompletesTombstonedRemoval: a Remove that partially failed
// leaves a tombstone; the reconciler finishes the removal on the straggler
// and does NOT re-deploy the task onto the switches that already dropped
// it. Once every switch is confirmed clean the handle is finalized away.
func TestReconcileCompletesTombstonedRemoval(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatal(err)
	}

	// Daemon 1 dies mid-remove: daemon 0 drops the task, daemon 1 strands it.
	srvs[1].Close()
	var pf *PartialFailureError
	if err := fleet.Remove("freq"); !errors.As(err, &pf) {
		t.Fatalf("remove error = %v, want partial failure", err)
	}

	// While daemon 1 is still down, a reconcile pass must neither finalize
	// the tombstone nor resurrect the task on daemon 0.
	res := fleet.Reconcile()
	if res.Finalized != 0 || res.Redeployed != 0 {
		t.Fatalf("pass with a dead switch: %+v", res)
	}
	if len(ctrls[0].Tasks()) != 0 {
		t.Fatal("reconcile resurrected a tombstoned task on daemon 0")
	}

	// Daemon 1 returns (same state: the stranded task is still there).
	srv := rpc.NewServer(ctrls[1], nil)
	if _, err := srv.Listen(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	res = fleet.Reconcile()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Finalized != 1 {
		t.Fatalf("reconcile after rejoin: %+v, want removed=1 finalized=1", res)
	}
	if len(ctrls[1].Tasks()) != 0 {
		t.Fatal("stranded task not removed")
	}
	// The handle is gone: the name is free again.
	if err := fleet.Remove("freq"); err == nil {
		t.Fatal("remove after finalization must report no task")
	}
	if err := fleet.Deploy(cmsSpec("freq")); err != nil {
		t.Fatalf("redeploy after finalization: %v", err)
	}
}

// TestReconcilerStartedAfterLivenessIsPoked is the -race regression for the
// fleet's background handles: the liveness goroutines read the reconciler
// handle (a rejoin pokes it) while StartReconciler publishes it, so the
// handle must be an atomic. The reconciler's own interval is an hour: only
// a rejoin poke can make it run.
func TestReconcilerStartedAfterLivenessIsPoked(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	_, clients, _, _ := resilientDaemons(t, 2, cfg)
	tele := &telemetry.FleetStats{}
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true, Telemetry: tele})
	t.Cleanup(fleet.Stop)

	fleet.StartLiveness(drillLiveness(7))
	fleet.StartReconciler(time.Hour)
	// A sleep, not a poll, while the sessions flip Up: polling Sessions()
	// takes locks the liveness goroutines also take, which would order the
	// handle's write before their read and hide a race from the detector.
	time.Sleep(10 * drillTx)
	waitSessions(t, fleet, true, 0, 1)
	waitFor(t, 5*time.Second, "a rejoin to poke the reconciler", func() bool {
		return tele.ReconcileRuns.Load() >= 1
	})
}
