package netwide

import (
	"strings"
	"testing"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/rpc"
)

// TestReconcileAfterGapNeverUndercounts: a fleet answer is either complete
// and a true CMS over-estimate, or partial with the mis-aligned switch named
// — never a complete-looking sum over rows indexed two different ways. Each
// case feeds one flow's 1,000 packets to each of two switches that lay an
// epoch task out differently. The fleet has no reconciler: a restarted
// daemon is brought back by hand, the way a second controller would.
func TestReconcileAfterGapNeverUndercounts(t *testing.T) {
	const perSwitch = 1000
	flow := packet.Packet{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1234, DstPort: 80, Proto: 6, Size: 64}
	key := packet.KeyFiveTuple.Extract(&flow)
	feed := func(ctrls []*controlplane.Controller) {
		for _, c := range ctrls {
			for n := 0; n < perSwitch; n++ {
				c.Process(&flow)
			}
		}
	}
	// honest is the property: est is what the caller would report for the
	// flow, truth what the fleet saw of it.
	honest := func(t *testing.T, est uint64, report QueryReport, truth uint64) {
		t.Helper()
		if !report.Partial() {
			if est < truth {
				t.Fatalf("complete report %v but estimate %d < truth %d", report, est, truth)
			}
			return
		}
		named := 0
		for _, msg := range report.Failed {
			if strings.Contains(msg, "layout diverged") {
				named++
			}
		}
		if named != 1 || len(report.Contributed) != 1 {
			t.Fatalf("partial report %v must name exactly the mis-aligned switch: %v", report, report.Failed)
		}
		if est < perSwitch {
			t.Fatalf("k-of-n estimate %d below the contributing switch's %d", est, perSwitch)
		}
	}
	cfg := fleetConfig()

	// outOfBand re-creates the fleet's epoch task e on daemon 1 by hand, as a
	// second controller would after a restart, feeds the flow and ends
	// epoch 1 fleet-wide.
	outOfBand := func(t *testing.T, fleet *RemoteFleet, e controlplane.TaskSpec, ctrls []*controlplane.Controller, clients []*rpc.Client) {
		t.Helper()
		if _, err := clients[1].EpochDeploy(e); err != nil {
			t.Fatal(err)
		}
		feed(ctrls)
		if _, err := fleet.RotateEpoch(e.Name); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("reconcile across a removal gap", func(t *testing.T) {
		cfg := cfg
		cfg.Groups = 5 // three epoch tasks and e's two copies
		ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
		fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
		for _, name := range []string{"a", "b", "c", "e"} {
			if err := fleet.DeployEpoch(cmsSpec(name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fleet.RemoveEpochTask("b"); err != nil {
			t.Fatal(err)
		}
		// Daemon 1 restarts empty and is reconciled by hand in the fleet's
		// deployment order: a and c refill groups 0 and 1, while the mirror
		// and daemon 0 hold c on group 2.
		restartEmpty(t, 1, cfg, ctrls, srvs, addrs)
		_ = clients[1].Ping() // fails on the dead process's connection and drops it
		for _, name := range []string{"a", "c"} {
			got, err := clients[1].EpochDeploy(cmsSpec(name))
			if err != nil {
				t.Fatal(err)
			}
			want := fleet.tasks[name].fingerprint
			if aligned := got.Task.Fingerprint == want; aligned != (name == "a") {
				t.Fatalf("refilled %q laid out as %016x, mirror %016x: only a should align", name, got.Task.Fingerprint, want)
			}
		}
		// e comes back on group 2 of daemon 1, the mirror's is on group 3.
		outOfBand(t, fleet, cmsSpec("e"), ctrls, clients)
		est, report, err := fleet.EstimateKeyEpoch("e", 1, key, EpochQuery{})
		if err != nil {
			t.Fatal(err)
		}
		honest(t, est, report, 2*perSwitch)
		if _, bad := report.Failed[1]; !bad {
			t.Fatalf("switch 1 is the mis-aligned one, report %v", report.Failed)
		}
		// Every typed answer reads the same merge: none admits switch 1.
		art, err := fleet.Epoch("e", 1, EpochQuery{})
		if err != nil || len(art.Report.Failed) != 1 {
			t.Fatalf("epoch 1 of e: %v, %v", art.Report, err)
		}
		if hh, err := art.HeavyHitters([]packet.CanonicalKey{key}, 1); err != nil || !hh[key] {
			t.Fatalf("HeavyHitters on e: %v, %v", hh, err)
		}
		// A strict fleet refuses instead of bounding (it borrows the table
		// row; the query fails before anything reads its own mirror).
		strict := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
		strict.tasks["e"] = fleet.tasks["e"]
		if _, _, err := strict.EstimateKeyEpoch("e", 1, key, EpochQuery{}); !isCode(err, rpc.CodeLayoutDiverged) {
			t.Fatalf("strict query over a diverged switch = %v, want layout diverged", err)
		}
	})

	t.Run("daemon restarted with another geometry", func(t *testing.T) {
		ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
		fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
		whole := cmsSpec("e")
		whole.MemBuckets = 65536
		if err := fleet.DeployEpoch(whole); err != nil {
			t.Fatal(err)
		}
		restartEmpty(t, 1, controlplane.Config{Groups: 3, Buckets: 32768, BitWidth: 32}, ctrls, srvs, addrs)
		_ = clients[1].Ping() // fails on the dead process's connection and drops it
		outOfBand(t, fleet, whole, ctrls, clients)
		est, report, err := fleet.EstimateKeyEpoch("e", 1, key, EpochQuery{})
		if err != nil {
			t.Fatal(err)
		}
		honest(t, est, report, 2*perSwitch)
	})

	t.Run("visitor over switches that disagree", func(t *testing.T) {
		ctrls, clients, _, _ := resilientDaemons(t, 2, cfg)
		// No fleet would deploy this: switch 1's copy is displaced to group 1
		// by an out-of-band task. Two controllers each sure of "their" switch
		// would, and a visitor reads both.
		if _, err := ctrls[1].AddTask(cmsSpec("rogue")); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if _, err := c.EpochDeploy(cmsSpec("ep")); err != nil {
				t.Fatal(err)
			}
		}
		feed(ctrls)
		for _, c := range clients {
			if _, err := c.EpochRotate("ep", 1); err != nil {
				t.Fatal(err)
			}
		}
		visitor := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
		rows, report, err := visitor.QueryEpochRows("ep", 1, EpochQuery{Policy: StragglerSkip})
		if err != nil {
			t.Fatal(err)
		}
		// Probe the merged rows the way flymonctl query -estimate does: at the
		// indices a contributing switch computes.
		at := report.Contributed[0]
		snap, err := clients[at].ReadEpoch("ep", 1)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := clients[at].KeyIndices(snap.FrozenID, key)
		if err != nil {
			t.Fatal(err)
		}
		est := ^uint32(0)
		for i, ix := range idx {
			if v := rows[i][ix]; v < est {
				est = v
			}
		}
		honest(t, uint64(est), report, 2*perSwitch)
		if !report.Partial() {
			t.Fatal("setup: the two switches were expected to disagree")
		}
	})
}
