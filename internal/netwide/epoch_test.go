package netwide

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

func TestFleetEpochLifecycle(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 3, cfg)
	reg := telemetry.NewRegistry()
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{Telemetry: &reg.Fleet})

	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DeployEpoch(cmsSpec("ep")); err == nil {
		t.Fatal("duplicate epoch deploy must fail")
	}

	// Querying before any rotation completes is an explicit error.
	if _, _, err := fleet.QueryEpochRows("ep", 0, EpochQuery{}); err == nil {
		t.Fatal("query with no completed epoch must fail")
	}

	// Epoch 1 traffic, spread across ingresses.
	tr1 := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, ZipfS: 1.1, Seed: 41})
	for i := range tr1.Packets {
		ctrls[i%3].Process(&tr1.Packets[i])
	}
	ep, err := fleet.RotateEpoch("ep")
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Fatalf("first rotation landed on epoch %d", ep)
	}
	if cur, err := fleet.EpochOf("ep"); err != nil || cur != 1 {
		t.Fatalf("EpochOf = %d, %v", cur, err)
	}

	key := packet.KeyFiveTuple.Extract(&tr1.Packets[0])
	est1, report, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 1 || report.Partial() || len(report.Contributed) != 3 {
		t.Fatalf("epoch-1 report = %+v", report)
	}
	if est1 == 0 {
		t.Fatal("epoch-1 estimate is zero despite traffic")
	}

	// Epoch 2 traffic must not leak into the epoch-1 readout (coherence at
	// the rotation boundary): the same query after more traffic is
	// bit-identical.
	tr2 := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, ZipfS: 1.1, Seed: 42})
	for i := range tr2.Packets {
		ctrls[i%3].Process(&tr2.Packets[i])
	}
	rows1, _, err := fleet.QueryEpochRows("ep", 1, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := fleet.QueryEpochRows("ep", 1, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range rows1 {
		for j := range rows1[r] {
			if rows1[r][j] != again[r][j] {
				t.Fatalf("epoch-1 snapshot drifted at row %d bucket %d", r, j)
			}
		}
	}

	// After the second rotation, epoch 2 holds exactly the second trace.
	if _, err := fleet.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	est2, report, err := fleet.EstimateKeyEpoch("ep", 0, key, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Epoch != 2 {
		t.Fatalf("latest-epoch report pinned to %d", report.Epoch)
	}
	// Key from tr1: its epoch-2 count comes only from tr2's packets (CMS
	// overestimates, never underestimates, so est2 can exceed 0 — but the
	// epoch-1 estimate must not change).
	_ = est2
	// Two more rotations reclaim the mirror's frozen copy of epoch 1, but
	// the epoch's index mapping travels with its stored merge: the
	// estimate is served from it and equals the value taken while epoch 1
	// was current.
	if _, err := fleet.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	v, report, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{})
	if err != nil || v != est1 {
		t.Fatalf("epoch-1 estimate after two more rotations = %d, %v; want %d", v, err, est1)
	}
	if !report.Cached || report.Epoch != 1 || report.Partial() || len(report.Contributed) != 3 {
		t.Fatalf("epoch-1 report after two more rotations = %+v", report)
	}
	// The raw rows for epoch 1 are still readable (retention window).
	if _, _, err := fleet.QueryEpochRows("ep", 1, EpochQuery{}); err != nil {
		t.Fatalf("epoch-1 rows unreadable inside retention window: %v", err)
	}

	if mt := &reg.Fleet.MergeTree; mt.EpochCacheHits.Load()+mt.EpochCacheMisses.Load() == 0 {
		t.Fatal("epoch queries not counted")
	}

	if err := fleet.RemoveEpochTask("ep"); err != nil {
		t.Fatal(err)
	}
	for i, c := range ctrls {
		if n := len(c.Tasks()); n != 0 {
			t.Fatalf("daemon %d leaked %d tasks after epoch remove", i, n)
		}
	}
	if _, err := fleet.RotateEpoch("ep"); err == nil {
		t.Fatal("rotate after remove must fail")
	}
}

func TestQueryEpochRowsUndeployedName(t *testing.T) {
	// What flymonctl query runs: a fleet that did not deploy the epoch task
	// (no mirror state for it) reads the switches at an explicit epoch,
	// with the straggler policy applied, and stores nothing.
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 1, cfg)
	owner := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if err := owner.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 4_000, Seed: 43})
	for i := range tr.Packets {
		ctrls[0].Process(&tr.Packets[i])
	}
	if _, err := owner.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	want, _, err := owner.QueryEpochRows("ep", 1, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	visitor := NewRemoteFleetOptions(clients, controlplane.Config{}, FleetOptions{AllowPartial: true})
	for pass := 0; pass < 2; pass++ {
		rows, report, err := visitor.QueryEpochRows("ep", 1, EpochQuery{})
		if err != nil {
			t.Fatal(err)
		}
		if report.Cached || report.Epoch != 1 || len(report.Contributed) != 1 {
			t.Fatalf("pass %d report = %+v, want an uncached 1/1 read of epoch 1", pass, report)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("pass %d: visitor rows differ from the owning fleet's", pass)
		}
	}
	if _, _, err := visitor.QueryEpochRows("ep", 0, EpochQuery{}); err == nil {
		t.Fatal("an undeployed name without an explicit epoch must fail")
	}
	if _, _, err := visitor.EstimateKeyEpoch("ep", 1, packet.CanonicalKey{}, EpochQuery{}); err == nil {
		t.Fatal("an estimate needs the mirror's index mapping; a visitor has none")
	}
	// A skip-policy read of a not-yet-completed epoch reports the straggler
	// immediately; a wait-policy read blocks only up to Wait, then fails.
	_, report, err := visitor.QueryEpochRows("ep", 7, EpochQuery{Policy: StragglerSkip})
	if err == nil || report.Stragglers[0] != 1 || len(report.Failed) != 0 {
		t.Fatalf("skip read of a future epoch: err %v report %+v, want straggler 0@1", err, report)
	}
	start := time.Now()
	_, report, err = visitor.QueryEpochRows("ep", 7, EpochQuery{Wait: 150 * time.Millisecond})
	var pf *PartialFailureError
	if !errors.As(err, &pf) || report.Stragglers[0] != 1 {
		t.Fatalf("wait read of a future epoch: err %v report %+v", err, report)
	}
	if el := time.Since(start); el < 100*time.Millisecond || el > 2*time.Second {
		t.Fatalf("wait-policy read blocked %v, want ~150ms", el)
	}
}
