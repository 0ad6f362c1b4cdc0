package netwide

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
	"flymon/internal/tracing"
)

// epochTraffic spreads one seeded trace over the daemons and returns a
// few of its keys.
func epochTraffic(ctrls []*controlplane.Controller, seed int64) []packet.CanonicalKey {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 9_000, ZipfS: 1.1, Seed: seed})
	for i := range tr.Packets {
		ctrls[i%len(ctrls)].Process(&tr.Packets[i])
	}
	keys := make([]packet.CanonicalKey, 8)
	for i := range keys {
		keys[i] = packet.KeyFiveTuple.Extract(&tr.Packets[i*97])
	}
	return keys
}

// epochOracle is the independent readout the store is checked against:
// every daemon's snapshot read straight off its client and reduced by a
// fresh MergeStream, no fleet involved.
func epochOracle(t *testing.T, clients []*rpc.Client, name string, epochN int, op MergeOp) [][]uint32 {
	t.Helper()
	leaves := make(chan Leaf, len(clients))
	for i, c := range clients {
		res, err := c.ReadEpoch(name, epochN)
		if err != nil {
			t.Fatal(err)
		}
		leaves <- Leaf{Switch: i, Rows: res.FrameRows(nil)}
	}
	close(leaves)
	res, err := MergeStream(leaves, op, TreeOptions{Task: name})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func sameRows(t *testing.T, what string, got, want [][]uint32) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rows differ from the independent merge", what)
	}
}

func TestEpochArtifactBitIdentical(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 3, cfg)
	reg := telemetry.NewRegistry()
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{Telemetry: &reg.Fleet})
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	keys := epochTraffic(ctrls, 61)
	if _, err := fleet.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	// The mirror's frozen copy while current: the pre-store indexer.
	h, err := fleet.mirror.TaskHandle(fleet.epochTask("ep").rot.FrozenID())
	if err != nil {
		t.Fatal(err)
	}
	cms := h.(*algorithms.CMSTask)
	for _, op := range []MergeOp{MergeAdd, MergeMax} {
		want := epochOracle(t, clients, "ep", 1, op)
		for pass, cached := range []bool{false, true, true} {
			rows, report, err := fleet.QueryEpochRows("ep", 1, EpochQuery{Op: op})
			if err != nil {
				t.Fatal(err)
			}
			if report.Cached != cached || report.Epoch != 1 || report.Partial() || len(report.Contributed) != 3 {
				t.Fatalf("op %s pass %d report = %+v", op, pass, report)
			}
			sameRows(t, op.String(), rows, want)
		}
		if op != MergeAdd {
			continue
		}
		for _, k := range keys {
			est, report, err := fleet.EstimateKeyEpoch("ep", 0, k, EpochQuery{})
			if err != nil || !report.Cached {
				t.Fatalf("estimate: %v, report %+v", err, report)
			}
			if ref := countMin(cms, want, k); est != ref || est == 0 {
				t.Fatalf("cached estimate %d, independent merge says %d", est, ref)
			}
		}
	}
	// A cached estimate is a read: no RPC, no goroutine, no allocation.
	allocs := testing.AllocsPerRun(200, func() {
		if _, report, err := fleet.EstimateKeyEpoch("ep", 1, keys[0], EpochQuery{}); err != nil || !report.Cached {
			t.Fatalf("cached estimate: report %+v, err %v", report, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cached EstimateKeyEpoch allocates %v times, want 0", allocs)
	}
	mt := reg.Fleet.MergeTree.Snapshot()
	if mt.EpochCacheMisses != 2 || mt.EpochCacheHits != 4+uint64(len(keys))+201 {
		t.Fatalf("hits %d misses %d", mt.EpochCacheHits, mt.EpochCacheMisses)
	}
	if !strings.Contains(QueryReport{Contributed: []int{0}, Epoch: 1, Cached: true}.String(), "(cached)") {
		t.Fatal("QueryReport.String does not show a cached answer")
	}
}

func TestEpochArtifactSingleFlight(t *testing.T) {
	// 32 concurrent first queries on a fresh epoch: one fan-out, so exactly
	// one read_epoch per switch; everyone gets the same complete answer,
	// and the 31 served from the store still leave a root span behind.
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 4, cfg)
	tr := tracing.New(4096)
	tele := &telemetry.FleetStats{}
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{Telemetry: tele, Tracer: tr})
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	key := epochTraffic(ctrls, 62)[0]
	if _, err := fleet.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	const callers = 32
	ests := make([]uint64, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var (
				report QueryReport
				err    error
			)
			if g%2 == 0 {
				ests[g], report, err = fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{})
			} else {
				_, report, err = fleet.QueryEpochRows("ep", 1, EpochQuery{})
			}
			if err != nil || report.Partial() || len(report.Contributed) != 4 {
				t.Errorf("caller %d: report %+v err %v", g, report, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 2; g < callers; g += 2 {
		if ests[g] != ests[0] {
			t.Fatalf("caller %d estimated %d, caller 0 %d", g, ests[g], ests[0])
		}
	}
	spans, _, _ := tr.Dump()
	reads := make(map[string]int)
	roots, cachedRoots := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "rpc:read_epoch":
			reads[sp.Detail]++
		case "epoch_query":
			roots++
			if strings.Contains(sp.Detail, "cached") {
				cachedRoots++
			}
		}
	}
	for _, c := range clients {
		if reads[c.Addr()] != 1 {
			t.Fatalf("switch %s served %d read_epoch calls, want 1 (all: %v)", c.Addr(), reads[c.Addr()], reads)
		}
	}
	if roots != callers || cachedRoots != callers-1 {
		t.Fatalf("%d epoch_query roots, %d cached; want %d and %d", roots, cachedRoots, callers, callers-1)
	}
	mt := tele.MergeTree.Snapshot()
	if mt.EpochCacheMisses != 1 || mt.EpochCacheHits != callers-1 || mt.EpochQueries != callers {
		t.Fatalf("queries %d hits %d misses %d", mt.EpochQueries, mt.EpochCacheHits, mt.EpochCacheMisses)
	}
}

func TestEpochArtifactLifetime(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 2, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	// Five epochs, each estimated while current under two ops.
	key := epochTraffic(ctrls, 70)[0]
	ests := make(map[int]uint64)
	for e := 1; e <= rpc.EpochRetain+1; e++ {
		if e > 1 {
			epochTraffic(ctrls, 70+int64(e))
		}
		if _, err := fleet.RotateEpoch("ep"); err != nil {
			t.Fatal(err)
		}
		est, _, err := fleet.EstimateKeyEpoch("ep", e, key, EpochQuery{})
		if err != nil {
			t.Fatal(err)
		}
		ests[e] = est
		if _, _, err := fleet.QueryEpochRows("ep", e, EpochQuery{Op: MergeMax}); err != nil {
			t.Fatal(err)
		}
	}
	// The fifth epoch evicted the first — same window as the daemons — and
	// nothing else: at most EpochRetain stored merges per (task, op).
	et := fleet.epochTask("ep")
	if len(et.window) != rpc.EpochRetain || et.window[1] != nil {
		t.Fatalf("window holds %d epochs (epoch 1 kept: %v), want %d", len(et.window), et.window[1] != nil, rpc.EpochRetain)
	}
	if _, _, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{}); err == nil {
		t.Fatal("epoch 1 must be gone after the fifth rotation")
	}
	for e := 2; e <= rpc.EpochRetain+1; e++ {
		if len(et.window[e].merged) != 2 {
			t.Fatalf("epoch %d stores %d merges, want add and max", e, len(et.window[e].merged))
		}
		est, report, err := fleet.EstimateKeyEpoch("ep", e, key, EpochQuery{})
		if err != nil || !report.Cached || est != ests[e] {
			t.Fatalf("epoch %d: estimate %d (while current: %d), report %+v, err %v", e, est, ests[e], report, err)
		}
	}

	// Remove + deploy under the same name: a new task, never the old rows
	// (the traffic seeds differ, so the oracle would tell).
	if err := fleet.RemoveEpochTask("ep"); err != nil {
		t.Fatal(err)
	}
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 2; e++ {
		epochTraffic(ctrls, 80+int64(e))
		if _, err := fleet.RotateEpoch("ep"); err != nil {
			t.Fatal(err)
		}
	}
	rows, report, err := fleet.QueryEpochRows("ep", 2, EpochQuery{})
	if err != nil || report.Cached {
		t.Fatalf("first query of the redeployed task: report %+v err %v", report, err)
	}
	sameRows(t, "redeployed", rows, epochOracle(t, clients, "ep", 2, MergeAdd))
}

func TestEpochArtifactFreedWithFleet(t *testing.T) {
	// No package-level state: once the fleet value is unreachable, so are
	// its stored epochs.
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 2, cfg)
	freed := make(chan struct{})
	func() {
		fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
		if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
			t.Fatal(err)
		}
		epochTraffic(ctrls, 64)
		if _, err := fleet.RotateEpoch("ep"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fleet.QueryEpochRows("ep", 1, EpochQuery{}); err != nil {
			t.Fatal(err)
		}
		fe := fleet.epochTask("ep").window[1]
		if len(fe.merged) != 1 {
			t.Fatalf("epoch 1 stores %d merges, want 1", len(fe.merged))
		}
		runtime.SetFinalizer(fe, func(*frozenEpoch) { close(freed) })
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("stored epoch still reachable after the fleet was dropped")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
