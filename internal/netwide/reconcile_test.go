package netwide

import (
	"errors"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
)

// TestReconcileRedeploysWipedDaemonAtPinnedIDs is the core self-healing
// property: a daemon that crashed and restarted EMPTY gets its tasks back
// at exactly the fleet's IDs — including across gaps left by removals —
// and the next plain Deploy stays aligned on every switch.
func TestReconcileRedeploysWipedDaemonAtPinnedIDs(t *testing.T) {
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

	// Deploy a, b, c (IDs 1, 2, 3), then remove b — the fleet's desired
	// state now has an ID gap: {a:1, c:3}.
	for _, name := range []string{"a", "b", "c"} {
		if err := fleet.Deploy(cmsSpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.Remove("b"); err != nil {
		t.Fatal(err)
	}

	// Daemon 1 crashes and restarts from scratch: fresh controller, same
	// address, zero tasks.
	srvs[1].Close()
	ctrls[1] = controlplane.NewController(cfg)
	srv := rpc.NewServer(ctrls[1], nil)
	if _, err := srv.Listen(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	res := fleet.Reconcile()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Redeployed != 2 {
		t.Fatalf("redeployed = %d, want 2 (a and c)", res.Redeployed)
	}
	tasks := ctrls[1].Tasks()
	if len(tasks) != 2 {
		t.Fatalf("restarted daemon has %d tasks, want 2", len(tasks))
	}
	byID := make(map[int]string)
	for _, task := range tasks {
		byID[task.ID] = task.Spec.Name
	}
	if byID[1] != "a" || byID[3] != "c" {
		t.Fatalf("restarted daemon tasks = %v, want {1:a, 3:c}", byID)
	}

	// A second pass is idempotent: nothing left to repair.
	res = fleet.Reconcile()
	if res.Redeployed != 0 || res.Err() != nil {
		t.Fatalf("second pass not clean: %+v", res)
	}

	// The restarted daemon's ID sequence realigned: the next fleet-wide
	// Deploy gets ID 4 everywhere (no divergence error).
	if err := fleet.Deploy(cmsSpec("d")); err != nil {
		t.Fatalf("deploy after reconcile: %v", err)
	}
	for i, c := range ctrls {
		found := false
		for _, task := range c.Tasks() {
			if task.Spec.Name == "d" && task.ID == 4 {
				found = true
			}
		}
		if !found {
			t.Fatalf("daemon %d: task d not at ID 4: %v", i, c.Tasks())
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
