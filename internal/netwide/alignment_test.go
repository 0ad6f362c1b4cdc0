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
// case feeds one flow's 1,000 packets to each of two switches that lay the
// task out differently.
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

	t.Run("reconcile across a removal gap", func(t *testing.T) {
		ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
		fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
		for _, name := range []string{"a", "b", "c"} {
			if err := fleet.Deploy(cmsSpec(name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fleet.Remove("b"); err != nil {
			t.Fatal(err)
		}
		// Daemon 1 restarts empty and refills a, c into groups 0, 1; the
		// mirror and daemon 0 hold c on group 2.
		restartEmpty(t, 1, cfg, ctrls, srvs, addrs)
		res := fleet.Reconcile()
		if res.Redeployed != 2 || len(res.Errors) != 1 || !isCode(res.Errors[0], rpc.CodeLayoutDiverged) {
			t.Fatalf("reconcile = %+v, want a and c re-deployed and c reported diverged", res)
		}
		if h := fleet.Health()[1]; h.TasksDesired != 2 || h.TasksObserved != 1 {
			t.Fatalf("switch 1 aligned/desired = %d/%d, want 1/2", h.TasksObserved, h.TasksDesired)
		}
		feed(ctrls)
		est, report, err := fleet.EstimateKeyPartial("c", key)
		if err != nil {
			t.Fatal(err)
		}
		honest(t, est, report, 2*perSwitch)
		if _, bad := report.Failed[1]; !bad {
			t.Fatalf("switch 1 is the mis-aligned one, report %v", report.Failed)
		}
		// a came back where it was: complete, and exact for a lone flow.
		est, report, err = fleet.EstimateKeyPartial("a", key)
		if err != nil || report.Partial() || est != 2*perSwitch {
			t.Fatalf("aligned task a = %d, %v, %v; want %d from 2/2", est, report, err, 2*perSwitch)
		}
		// Every query kind goes through the same merge: none admits switch 1.
		if _, report, err := fleet.HeavyHitters("c", []packet.CanonicalKey{key}, 1); err != nil || len(report.Failed) != 1 {
			t.Fatalf("HeavyHitters on c: %v, %v", report, err)
		}
		// A strict fleet refuses instead of bounding (it borrows the table
		// row; the query fails before anything reads its own mirror).
		strict := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
		strict.tasks["c"] = fleet.tasks["c"]
		if _, err := strict.EstimateKey("c", key); !isCode(err, rpc.CodeLayoutDiverged) {
			t.Fatalf("strict query over a diverged switch = %v, want layout diverged", err)
		}
	})

	t.Run("daemon restarted with another geometry", func(t *testing.T) {
		ctrls, clients, srvs, addrs := resilientDaemons(t, 2, cfg)
		fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: true})
		whole := cmsSpec("c")
		whole.MemBuckets = 65536
		if err := fleet.Deploy(whole); err != nil {
			t.Fatal(err)
		}
		restartEmpty(t, 1, controlplane.Config{Groups: 3, Buckets: 32768, BitWidth: 32}, ctrls, srvs, addrs)
		if res := fleet.Reconcile(); res.Redeployed != 1 || len(res.Errors) != 1 {
			t.Fatalf("reconcile = %+v, want c re-deployed and reported diverged", res)
		}
		feed(ctrls)
		est, report, err := fleet.EstimateKeyPartial("c", key)
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
