package netwide

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/sketch"
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

// storedMerges counts the ops a stored epoch holds a complete merge under.
func storedMerges(stored *storedEpoch) int {
	n := 0
	for _, m := range stored.merges {
		if m.rows != nil {
			n++
		}
	}
	return n
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
	for _, op := range []MergeOp{MergeAdd, MergeMax} {
		want := epochOracle(t, clients, "ep", 1, op)
		// The rotation stored the merge under the task's own op, add; the
		// max merge is made by its first query.
		for pass := 0; pass < 3; pass++ {
			cached := pass > 0 || op == MergeAdd
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
			ref, err := algorithms.Bind(h, want, 0).EstimateKey(k)
			if err != nil || float64(est) != ref || est == 0 {
				t.Fatalf("cached estimate %d, independent merge says %v (%v)", est, ref, err)
			}
		}
	}
	mt := &reg.Fleet.MergeTree
	if mt.EpochCacheMisses.Load() != 1 || mt.EpochCacheHits.Load() != 5+uint64(len(keys)) {
		t.Fatalf("hits %d misses %d", mt.EpochCacheHits.Load(), mt.EpochCacheMisses.Load())
	}
	if !strings.Contains(QueryReport{Contributed: []int{0}, Epoch: 1, Cached: true}.String(), "(cached)") {
		t.Fatal("QueryReport.String does not show a cached answer")
	}
}

// TestEpochOutlivesItsSwitch: the rotation collected epoch 1 whole, so the
// epoch answers for every switch after one of them goes down — with rows
// bit-identical to an independent merge taken while it was up — and a
// strict fleet does not fail the query over the dead switch.
func TestEpochOutlivesItsSwitch(t *testing.T) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	ctrls, clients, srvs, _ := resilientDaemons(t, 3, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	key := epochTraffic(ctrls, 66)[0]
	if _, err := fleet.RotateEpoch("ep"); err != nil {
		t.Fatal(err)
	}
	want := epochOracle(t, clients, "ep", 1, MergeAdd)
	srvs[1].Close()
	art, err := fleet.Epoch("ep", 1, EpochQuery{})
	if err != nil || art.Report.Partial() || !reflect.DeepEqual(art.Report.Contributed, []int{0, 1, 2}) {
		t.Fatalf("epoch 1 with switch 1 down: report %v, err %v", art.Report, err)
	}
	sameRows(t, "epoch 1 with switch 1 down", art.Rows, want)
	if est, err := art.Estimate(key); err != nil || est == 0 {
		t.Fatalf("estimate of a key of the epoch's traffic: %v, %v", est, err)
	}
}

// TestRotationStoresOnlyWholeEpochs: a rotation that cannot collect the
// epoch from every switch — one is down, lays the task out other than the
// mirror, or answers a target its retention already evicted — stores
// nothing, and the epoch's next query reads the switches and names the
// one. The rotation's own error is what it was before rotations collected:
// only a switch the decree did not reach fails it, and only when
// AllowPartial is unset.
func TestRotationStoresOnlyWholeEpochs(t *testing.T) {
	faults := map[string]func(t *testing.T, fleet *RemoteFleet, clients []*rpc.Client, ctrls []*controlplane.Controller, srvs []*rpc.Server){
		"down": func(t *testing.T, _ *RemoteFleet, _ []*rpc.Client, _ []*controlplane.Controller, srvs []*rpc.Server) {
			srvs[1].Close()
		},
		"diverged": func(t *testing.T, fleet *RemoteFleet, clients []*rpc.Client, ctrls []*controlplane.Controller, _ []*rpc.Server) {
			// Redeployed by hand behind an out-of-band task: another group.
			if err := clients[1].EpochRemove("ep"); err != nil {
				t.Fatal(err)
			}
			if _, err := ctrls[1].AddTask(cmsSpec("rogue")); err != nil {
				t.Fatal(err)
			}
			et, err := clients[1].EpochDeploy(cmsSpec("ep"))
			if err != nil || et.Task.Fingerprint == fleet.tasks["ep"].fingerprint {
				t.Fatalf("setup: switch 1 redeployed as %+v, %v: still aligned", et.Task, err)
			}
		},
		"evicted": func(t *testing.T, _ *RemoteFleet, clients []*rpc.Client, _ []*controlplane.Controller, _ []*rpc.Server) {
			if _, err := clients[1].EpochRotate("ep", 1+rpc.EpochRetain); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, fault := range []string{"down", "diverged", "evicted"} {
		for _, partial := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/partial=%v", fault, partial), func(t *testing.T) {
				check := gateFleetGoroutines(t)
				t.Cleanup(check)
				cfg := fleetConfig()
				ctrls, clients, srvs, _ := resilientDaemons(t, 3, cfg)
				fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{AllowPartial: partial})
				if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
					t.Fatal(err)
				}
				epochTraffic(ctrls, 67)
				faults[fault](t, fleet, clients, ctrls, srvs)
				target, err := fleet.RotateEpoch("ep")
				var pf *PartialFailureError
				if fault == "down" && !partial {
					if !errors.As(err, &pf) || pf.Op != "epoch_rotate" || !reflect.DeepEqual(pf.Stragglers(), []int{1}) {
						t.Fatalf("strict rotation past a dead switch = %v, want a PartialFailureError naming switch 1", err)
					}
				} else if err != nil {
					t.Fatalf("rotation: %v", err)
				}
				if target != 1 {
					t.Fatalf("rotated to epoch %d", target)
				}
				if n := storedMerges(fleet.epochTask("ep").window[1]); n != 0 {
					t.Fatalf("the rotation stored %d merges of an epoch it did not collect whole", n)
				}
				rows, report, err := fleet.QueryEpochRows("ep", 1, EpochQuery{Policy: StragglerSkip})
				if _, named := report.Failed[1]; !named || report.Cached {
					t.Fatalf("next query: report %v, err %v; want switch 1 named, read from the switches", report, err)
				}
				if partial != (err == nil) {
					t.Fatalf("next query (AllowPartial %v): err %v", partial, err)
				}
				if partial && (len(rows) == 0 || !reflect.DeepEqual(report.Contributed, []int{0, 2})) {
					t.Fatalf("next query merged %v into %d rows", report.Contributed, len(rows))
				}
			})
		}
	}
}

// TestEpochAnswersZeroAlloc: a typed answer from a stored epoch is a read
// of the merge through the handle bound to it when the merge was stored —
// no RPC, no goroutine, no allocation — for a cached EstimateKeyEpoch and
// for EpochArtifact.Contains.
func TestEpochAnswersZeroAlloc(t *testing.T) {
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 2, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	bloom := controlplane.TaskSpec{Name: "bloom", Attribute: controlplane.AttrExistence,
		Param: controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 1024}
	for _, spec := range []controlplane.TaskSpec{cmsSpec("ep"), bloom} {
		if err := fleet.DeployEpoch(spec); err != nil {
			t.Fatal(err)
		}
	}
	key := epochTraffic(ctrls, 65)[0]
	for _, name := range []string{"ep", "bloom"} {
		if _, err := fleet.RotateEpoch(name); err != nil {
			t.Fatal(err)
		}
	}
	art, err := fleet.Epoch("bloom", 1, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if in, err := art.Contains(key); err != nil || !in {
		t.Fatalf("a key of the epoch's traffic reads absent: %v, %v", in, err)
	}
	if _, _, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		ask  func()
	}{
		{"a cached EstimateKeyEpoch", func() {
			if _, report, err := fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{}); err != nil || !report.Cached {
				t.Fatalf("cached estimate: report %+v, err %v", report, err)
			}
		}},
		{"EpochArtifact.Contains", func() {
			if _, err := art.Contains(key); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(200, c.ask); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", c.what, allocs)
		}
	}
}

// TestEpochMergesUnderOwnOp: Epoch merges an HLL task under max whatever
// q.Op says, while QueryEpochRows merges under q.Op — add when unset — on
// the owning fleet and on one that did not deploy the task alike.
func TestEpochMergesUnderOwnOp(t *testing.T) {
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, 3, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	spec := controlplane.TaskSpec{
		Name: "card", Attribute: controlplane.AttrDistinct,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
		MemBuckets: 4096,
	}
	if err := fleet.DeployEpoch(spec); err != nil {
		t.Fatal(err)
	}
	epochTraffic(ctrls, 63)
	if _, err := fleet.RotateEpoch("card"); err != nil {
		t.Fatal(err)
	}
	maxRows := epochOracle(t, clients, "card", 1, MergeMax)
	addRows := epochOracle(t, clients, "card", 1, MergeAdd)
	if reflect.DeepEqual(maxRows, addRows) {
		t.Fatal("max- and add-merged ranks coincide: the test cannot tell the ops apart")
	}
	for _, q := range []EpochQuery{{}, {Op: MergeAdd}, {Op: MergeXor}} {
		art, err := fleet.Epoch("card", 1, q)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "Epoch "+q.Op.String(), art.Rows, maxRows)
		if got, err := art.Cardinality(); err != nil || got != sketch.HLLEstimateFromRanks(maxRows[0]) {
			t.Fatalf("Epoch(%s) cardinality %v, %v", q.Op, got, err)
		}
	}
	visitor := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	for _, f := range []*RemoteFleet{fleet, visitor} {
		rows, _, err := f.QueryEpochRows("card", 1, EpochQuery{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "QueryEpochRows with no op", rows, addRows)
		if rows, _, err = f.QueryEpochRows("card", 1, EpochQuery{Op: MergeMax}); err != nil {
			t.Fatal(err)
		}
		sameRows(t, "QueryEpochRows max", rows, maxRows)
	}
	if art, err := visitor.Epoch("card", 1, EpochQuery{}); err != nil {
		t.Fatal(err)
	} else if _, err := art.Cardinality(); err == nil {
		t.Fatal("a task the fleet did not deploy has no typed answers")
	}
}

// TestEpochArtifactSingleFlight: 32 concurrent first queries of one
// (epoch, op) fan out once — one fetch per switch per epoch — and everyone
// gets the same complete answer, each still leaving a root span behind.
// The lead is the rotation for the task's own op (the queries wait for its
// merge while switch 0's rotation answer is held) and the first query for
// an op the rotation does not store (max on a CMS: the other 31 wait while
// switch 0 holds that query's read_epoch).
func TestEpochArtifactSingleFlight(t *testing.T) {
	for _, queryLed := range []bool{false, true} {
		name := "rotation-led"
		if queryLed {
			name = "query-led"
		}
		t.Run(name, func(t *testing.T) { singleFlight(t, queryLed) })
	}
}

func singleFlight(t *testing.T, queryLed bool) {
	check := gateFleetGoroutines(t)
	t.Cleanup(check)
	cfg := fleetConfig()
	var armed atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	// Switch 0 holds the lead's fetch: the rotation's answer, or the
	// leading query's read_epoch once it has read the request.
	hold := func(write bool) {
		if write != queryLed && armed.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}
	nop := func(bool) {}
	tr := tracing.New(4096)
	tele := &telemetry.FleetStats{}
	fleet, ctrls := tappedFleet(t, cfg, FleetOptions{Telemetry: tele, Tracer: tr}, hold, nop, nop, nop)
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	key := epochTraffic(ctrls, 62)[0]
	rotated := make(chan error, 1)
	if queryLed {
		_, err := fleet.RotateEpoch("ep")
		rotated <- err
		armed.Store(true)
	} else {
		armed.Store(true)
		go func() {
			_, err := fleet.RotateEpoch("ep")
			rotated <- err
		}()
		<-held // the mirror has rotated: epoch 1 is in the window, its merge led
	}
	const callers = 32
	ests := make([]uint64, callers)
	rows := make([][][]uint32, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var (
				report QueryReport
				err    error
			)
			switch {
			case queryLed:
				rows[g], report, err = fleet.QueryEpochRows("ep", 1, EpochQuery{Op: MergeMax})
			case g%2 == 0:
				ests[g], report, err = fleet.EstimateKeyEpoch("ep", 1, key, EpochQuery{})
			default:
				rows[g], report, err = fleet.QueryEpochRows("ep", 1, EpochQuery{})
			}
			if err != nil || report.Partial() || len(report.Contributed) != 4 {
				t.Errorf("caller %d: report %+v err %v", g, report, err)
			}
		}(g)
	}
	waiters := callers
	if queryLed {
		<-held
		waiters--
	}
	got := awaitEpochWaiters(waiters) // every caller but the lead waits on it
	close(release)
	wg.Wait()
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	if got != waiters {
		t.Fatalf("%d callers waited on the single-flight lead, want %d", got, waiters)
	}
	for g := 0; g < callers; g++ {
		if g%2 == 0 && ests[g] != ests[0] {
			t.Fatalf("caller %d estimated %d, caller 0 %d", g, ests[g], ests[0])
		}
		if rows[g] != nil && !reflect.DeepEqual(rows[g], rows[1]) {
			t.Fatalf("caller %d answered other rows than caller 1", g)
		}
	}
	spans, _, _ := tr.Dump()
	fetch := "rpc:epoch_rotate"
	if queryLed {
		fetch = "rpc:read_epoch"
	}
	fetches := make(map[string]int)
	roots, cachedRoots := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "rpc:epoch_rotate", "rpc:read_epoch":
			if sp.Name == fetch {
				fetches[sp.Detail]++
			} else if queryLed {
				continue // the rotation that came before the queries
			} else {
				t.Fatalf("a query read switch %s; the rotation collected the epoch", sp.Detail)
			}
		case "epoch_query":
			roots++
			if strings.Contains(sp.Detail, "cached") {
				cachedRoots++
			}
		}
	}
	for _, c := range fleet.clients {
		if fetches[c.Addr()] != 1 {
			t.Fatalf("switch %s served %d %s calls, want 1 (all: %v)", c.Addr(), fetches[c.Addr()], fetch, fetches)
		}
	}
	misses := 0
	if queryLed {
		misses = 1
	}
	if roots != callers || cachedRoots != callers-misses {
		t.Fatalf("%d epoch_query roots, %d cached; want %d and %d", roots, cachedRoots, callers, callers-misses)
	}
	mt := &tele.MergeTree
	if mt.EpochCacheMisses.Load() != uint64(misses) || mt.EpochCacheHits.Load() != uint64(callers-misses) {
		t.Fatalf("hits %d misses %d, want %d and %d", mt.EpochCacheHits.Load(), mt.EpochCacheMisses.Load(), callers-misses, misses)
	}
	// The rotation's merge is no query: only the leading query's counts.
	if mt.Queries.Load() != uint64(misses) {
		t.Fatalf("%d merge-tree queries counted, want %d", mt.Queries.Load(), misses)
	}
}

// awaitEpochWaiters blocks until n goroutines wait in RemoteFleet.epoch
// itself — on another caller's single-flight lead, not inside a fetch or a
// merge of their own — or for at most 5 s, and returns how many last did.
func awaitEpochWaiters(n int) int {
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if !strings.Contains(g, "[chan receive") {
				continue
			}
			for _, line := range strings.Split(g, "\n")[1:] {
				if strings.HasPrefix(line, "runtime.") || strings.HasPrefix(line, "\t") {
					continue
				}
				if strings.HasPrefix(line, "flymon/internal/netwide.(*RemoteFleet).epoch(") {
					got++
				}
				break
			}
		}
		if got == n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
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
		if n := storedMerges(et.window[e]); n != 2 {
			t.Fatalf("epoch %d stores %d merges, want add and max", e, n)
		}
		est, report, err := fleet.EstimateKeyEpoch("ep", e, key, EpochQuery{})
		if err != nil || !report.Cached || est != ests[e] {
			t.Fatalf("epoch %d: estimate %d (while current: %d), report %+v, err %v", e, est, ests[e], report, err)
		}
	}

	// Remove + deploy under the same name: a new task, never the old rows
	// (the traffic seeds differ, so the oracle would tell). The old task
	// stored a max merge of epoch 2; the new one's rotation stored only add.
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
	rows, report, err := fleet.QueryEpochRows("ep", 2, EpochQuery{Op: MergeMax})
	if err != nil || report.Cached {
		t.Fatalf("first max query of the redeployed task: report %+v err %v", report, err)
	}
	sameRows(t, "redeployed", rows, epochOracle(t, clients, "ep", 2, MergeMax))
	rows, _, err = fleet.QueryEpochRows("ep", 2, EpochQuery{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "redeployed, stored by its rotation", rows, epochOracle(t, clients, "ep", 2, MergeAdd))
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
		stored := fleet.epochTask("ep").window[1]
		if n := storedMerges(stored); n != 1 {
			t.Fatalf("epoch 1 stores %d merges, want 1", n)
		}
		runtime.SetFinalizer(stored, func(*storedEpoch) { close(freed) })
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

// TestColdEpochQueryReadsIntoPooledLeaves: a cold query — here under max,
// which the rotations did not store — reads each switch's frame straight
// into a leaf buffer from the fleet's pool. With the pool warm from the
// previous epoch's merge, the only row storage it allocates is the one
// leaf its stored merge keeps — not one readout per switch. The least of
// three cold queries is held to that, so a GC that empties the pool
// between two of them cannot fail the test.
func TestColdEpochQueryReadsIntoPooledLeaves(t *testing.T) {
	const switches, readout = 4, 4 * 3 * 16384
	cfg := fleetConfig()
	ctrls, clients := startDaemons(t, switches, cfg)
	fleet := NewRemoteFleetOptions(clients, cfg, FleetOptions{})
	if err := fleet.DeployEpoch(cmsSpec("ep")); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 4; e++ {
		epochTraffic(ctrls, int64(e))
		if _, err := fleet.RotateEpoch("ep"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := fleet.QueryEpochRows("ep", 1, EpochQuery{Op: MergeMax}); err != nil {
		t.Fatal(err)
	}
	least := uint64(1 << 62)
	for e := 2; e <= 4; e++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, report, err := fleet.QueryEpochRows("ep", e, EpochQuery{Op: MergeMax})
		runtime.ReadMemStats(&after)
		if err != nil || report.Cached || len(report.Contributed) != switches || len(rows) != 3 {
			t.Fatalf("cold query of epoch %d: %d rows, report %+v, err %v", e, len(rows), report, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("cold query over %d switches: %d B allocated, readout %d B", switches, least, readout)
	if least > readout*3/2 && !raceEnabled {
		t.Fatalf("a warm-pool cold query over %d switches allocates %d B, want ≤ 1.5 × the %d-byte readout", switches, least, readout)
	}
}
