package core

import (
	"testing"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// The telemetry plane's core contract: attaching a registry must not break
// the zero-allocation gate, and the counts it produces must be exact at
// batch boundaries.

func TestSnapshotProcessZeroAllocTelemetry(t *testing.T) {
	// Same fixture and gate as TestSnapshotProcessZeroAlloc, with telemetry
	// attached. The fixture deliberately has live-counted rules (filtered +
	// probability-gated), so this exercises the ctx-local accumulator path,
	// not just the derived-counter fast case. AllocsPerRun's warm-up call
	// covers teleArm's one-time accumulator growth.
	pl := allocPipeline(t)
	pl.SetTelemetry(telemetry.NewRegistry())
	s := pl.Compile()
	pc := NewProcCtx()
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 256, Seed: 3})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Process(pc, &tr.Packets[i&255])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Snapshot.Process with telemetry allocates %.1f times per packet, want 0", allocs)
	}
}

func TestTelemetryExactCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	pl := allocPipeline(t)
	pl.SetTelemetry(reg)
	s := pl.Compile()

	// 10 TCP packets hit the filtered task (proto 6), 5 UDP packets offer
	// themselves to the sampled task (proto 17, prob 0.5). The CMS task is
	// derived: 3 rows × 15 packets.
	var ps []packet.Packet
	for i := 0; i < 10; i++ {
		ps = append(ps, packet.Packet{SrcIP: uint32(i + 1), DstIP: 1, Proto: 6})
	}
	for i := 0; i < 5; i++ {
		ps = append(ps, packet.Packet{SrcIP: uint32(i + 1), DstIP: 2, Proto: 17})
	}
	s.ProcessBatchCtx(NewProcCtx(), ps)

	fold := func() map[int]uint64 {
		dp := reg.FoldDataPlane(s.TelemetryLive())
		byTask := make(map[int]uint64)
		for _, r := range dp.Rules {
			byTask[r.Task] += r.Hits
		}
		return byTask
	}

	byTask := fold()
	if byTask[1] != 3*15 {
		t.Errorf("derived CMS task: %d hits, want %d (3 rows × 15 packets)", byTask[1], 3*15)
	}
	if byTask[2] != 10 {
		t.Errorf("filtered task: %d hits, want 10 (proto-6 packets)", byTask[2])
	}
	if byTask[3] > 5 {
		t.Errorf("sampled task: %d hits, want <= 5 (probability-gated)", byTask[3])
	}

	dp := reg.FoldDataPlane(s.TelemetryLive())
	wantI := byTask[1] + byTask[2] + byTask[3]
	if dp.Stages.Initialization != wantI {
		t.Errorf("stage I = %d, want %d (sum of rule hits)", dp.Stages.Initialization, wantI)
	}
	if dp.Stages.Operation != wantI {
		t.Errorf("stage O = %d, want %d (no prep rules, no drops)", dp.Stages.Operation, wantI)
	}
	if dp.Stages.Compression == 0 {
		t.Error("stage C = 0, want > 0 (digests are computed per packet)")
	}

	// Settling moves the derived counts from the snapshot's unsettled
	// counters into the durable ones — totals must not change, and settling
	// again must be a no-op.
	s.TelemetrySettle()
	after := fold()
	for task, hits := range byTask {
		if after[task] != hits {
			t.Errorf("task %d: %d hits after settle, want %d (settle must not change totals)", task, after[task], hits)
		}
	}
	s.TelemetrySettle()
	if again := fold(); again[1] != byTask[1] {
		t.Errorf("task 1: %d hits after double settle, want %d (settle must be idempotent)", again[1], byTask[1])
	}
}

func TestTelemetryDerivedDetection(t *testing.T) {
	reg := telemetry.NewRegistry()
	pl := allocPipeline(t)
	pl.SetTelemetry(reg)
	s := pl.Compile()
	s.ProcessBatchCtx(NewProcCtx(), []packet.Packet{{SrcIP: 1, DstIP: 2, Proto: 6}})
	// The whole-traffic CMS rules are derived: the snapshot reconstructs
	// their hits from its packet counter, so it must carry exactly those
	// three in its derived list and give the filtered/sampled rules live
	// accumulator slots instead.
	live := s.TelemetryLive()
	if len(live.Derived) != 3 {
		t.Fatalf("snapshot derives %d rules, want 3 (the CMS rows)", len(live.Derived))
	}
	for _, rc := range live.Derived {
		if rc.Key.Task != 1 {
			t.Errorf("derived rule belongs to task %d, want 1 (only match-all unsampled rules derive)", rc.Key.Task)
		}
		if !rc.Meta.Derived {
			t.Errorf("rule %+v in the derived list but not flagged Derived", rc.Key)
		}
	}
	dp := reg.FoldDataPlane(live)
	byCMU := make(map[[2]int]int)
	for _, r := range dp.Rules {
		byCMU[[2]int{r.Group, r.CMU}]++
	}
	// Placement: task 1 spans group 0's three CMUs; tasks 2 and 3 share
	// group 1 CMU 0. The coordinates must be real pipeline positions.
	for _, want := range [][2]int{{0, 0}, {0, 1}, {0, 2}} {
		if byCMU[want] != 1 {
			t.Errorf("group %d CMU %d holds %d counters, want 1", want[0], want[1], byCMU[want])
		}
	}
	if byCMU[[2]int{1, 0}] != 2 {
		t.Errorf("group 1 CMU 0 holds %d counters, want 2 (filtered + sampled)", byCMU[[2]int{1, 0}])
	}
}
