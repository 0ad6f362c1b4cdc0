package core

import (
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// buildCMS installs a d-row CMS-style task (Cond-ADD, p2=+∞) on group g,
// keyed on unit 0's compressed key with per-row rotations.
func buildCMS(t *testing.T, g *Group, taskID, d, buckets int) {
	t.Helper()
	if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d; i++ {
		r := &Rule{
			TaskID: taskID,
			Filter: packet.MatchAll,
			Key:    FullKey(0).SubRange(8*i, 32),
			P1:     Const(1),
			P2:     MaxValue(),
			Mem:    MemRange{Base: 0, Buckets: buckets},
			Op:     dataplane.OpCondAdd,
		}
		if err := g.CMU(i).InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotMatchesInterpretive replays one trace through the mutable
// interpretive path and through a compiled snapshot on identical pipelines
// and requires bit-identical register state.
func TestSnapshotMatchesInterpretive(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 20_000, Seed: 7})

	build := func() (*Pipeline, *Group, *Group) {
		g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
		g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
		buildCMS(t, g0, 1, 3, 4096)
		// Second group keys on DstIP to exercise a distinct mask.
		if err := g1.ConfigureUnit(0, packet.KeyDstIP); err != nil {
			t.Fatal(err)
		}
		r := &Rule{
			TaskID: 2, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0), P1: PacketSize(), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd,
		}
		if err := g1.CMU(0).InstallRule(r); err != nil {
			t.Fatal(err)
		}
		return NewPipelineWith(g0, g1), g0, g1
	}

	plA, a0, a1 := build()
	for i := range tr.Packets {
		plA.Process(&tr.Packets[i])
	}

	plB, b0, b1 := build()
	plB.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	for ci := 0; ci < 3; ci++ {
		for i := 0; i < 4096; i++ {
			if a0.CMU(ci).Register().Read(uint32(i)) != b0.CMU(ci).Register().Read(uint32(i)) {
				t.Fatalf("group 0 CMU %d bucket %d differs between interpretive and snapshot paths", ci, i)
			}
		}
	}
	for i := 0; i < 4096; i++ {
		if a1.CMU(0).Register().Read(uint32(i)) != b1.CMU(0).Register().Read(uint32(i)) {
			t.Fatalf("group 1 bucket %d differs between interpretive and snapshot paths", i)
		}
	}
	if plA.Packets() != plB.Packets() {
		t.Fatalf("packet counters differ: %d vs %d", plA.Packets(), plB.Packets())
	}
}

// TestSnapshotDedupsHashes verifies the compile-time hash deduplication:
// two groups whose bootstrap units share the same polynomial and mask must
// collapse to one digest slot.
func TestSnapshotDedupsHashes(t *testing.T) {
	// Group IDs 0 and 8 both map unit 0 to polynomial (id*3)%8 = 0.
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 1024, BitWidth: 32})
	g8 := NewGroup(GroupConfig{ID: 8, Buckets: 1024, BitWidth: 32})
	buildCMS(t, g0, 1, 1, 1024)
	buildCMS(t, g8, 2, 1, 1024)
	s := NewPipelineWith(g0, g8).Compile()
	if len(s.masks) != 1 {
		t.Fatalf("expected 1 distinct mask, got %d", len(s.masks))
	}
	if len(s.hashes) != 1 {
		t.Fatalf("expected 1 distinct (mask, polynomial) digest, got %d", len(s.hashes))
	}
	// Both groups must still count, through the shared digest.
	p := packet.Packet{SrcIP: 9, DstIP: 5, Proto: 6}
	s.Process(NewProcCtx(), &p)
	for _, g := range []*Group{g0, g8} {
		var mass uint64
		for i := 0; i < 1024; i++ {
			mass += uint64(g.CMU(0).Register().Read(uint32(i)))
		}
		if mass != 1 {
			t.Fatalf("group %d register mass %d, want 1: rule must fire through the shared digest", g.ID(), mass)
		}
	}
}

// TestSnapshotSkipsRulelessGroups: a group with a configured unit but no
// enabled rules is compiled out — its compression stage costs nothing and
// its registers are never touched.
func TestSnapshotSkipsRulelessGroups(t *testing.T) {
	idle := NewGroup(GroupConfig{ID: 0, Buckets: 1024, BitWidth: 32})
	if err := idle.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	busy := NewGroup(GroupConfig{ID: 1, Buckets: 1024, BitWidth: 32})
	buildCMS(t, busy, 1, 1, 1024)
	s := NewPipelineWith(idle, busy).Compile()
	if len(s.groups) != 1 {
		t.Fatalf("expected the ruleless group to be compiled out, got %d groups", len(s.groups))
	}

	// Freezing the only rule must compile the busy group out too.
	busy.CMU(0).RuleFor(1).Disabled = true
	if s2 := NewPipelineWith(idle, busy).Compile(); len(s2.groups) != 0 {
		t.Fatalf("expected zero groups once all rules are frozen, got %d", len(s2.groups))
	}
}

// TestFrozenSplicedTaskDoesNotRecirculate covers the splicedWants fix: a
// frozen spliced-group task must not trigger mirror+recirculation, on both
// the interpretive and the compiled path.
func TestFrozenSplicedTaskDoesNotRecirculate(t *testing.T) {
	build := func() (*Pipeline, *Group) {
		pl := NewPipeline(1)
		sp := NewGroup(GroupConfig{ID: 100, Buckets: 1024, BitWidth: 32})
		buildCMS(t, sp, 1, 1, 1024)
		if err := pl.AddSpliced(sp); err != nil {
			t.Fatal(err)
		}
		return pl, sp
	}
	p := packet.Packet{SrcIP: 1, DstIP: 2, Proto: 6}

	pl, sp := build()
	pl.Process(&p)
	if pl.Recirculated() != 1 {
		t.Fatalf("enabled spliced task must recirculate, got %d", pl.Recirculated())
	}
	sp.CMU(0).RuleFor(1).Disabled = true
	pl.Process(&p)
	if pl.Recirculated() != 1 {
		t.Fatalf("frozen spliced task must not recirculate, got %d", pl.Recirculated())
	}

	// Same through a snapshot.
	pl2, sp2 := build()
	sp2.CMU(0).RuleFor(1).Disabled = true
	pl2.Compile().Process(NewProcCtx(), &p)
	if pl2.Recirculated() != 0 {
		t.Fatalf("compiled path must not recirculate for a frozen spliced task, got %d", pl2.Recirculated())
	}
}

// TestFrozenSplicedTaskIsFrameVectorized: a spliced group whose only task is
// frozen runs nothing in packet order, so the frame engine runs the main
// pass on the column stage alone and counts no packet-order frame.
func TestFrozenSplicedTaskIsFrameVectorized(t *testing.T) {
	pl := splicedRow(t)
	pl.spliced[0].CMU(0).RuleFor(2).Disabled = true
	s := pl.Compile()
	if !s.FrameVectorized() {
		t.Fatal("a frozen spliced task must leave the snapshot frame-vectorised")
	}
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 2_000, Seed: 21})
	s.ProcessFrames(NewProcCtx(), mmtrace.FromPackets(tr.Packets), 0, len(tr.Packets))
	if n := pl.PacketOrderFrames(); n != 0 {
		t.Fatalf("%d frames ran in packet order beside a frozen spliced task, want 0", n)
	}
}

// TestSnapshotParallelWorkersGetUniqueRngStreams guards the fix for the
// lockstep-sampling bug: parallel workers that all start from the fixed
// seed flip identical coins, so probabilistic rules sample correlated
// packet subsets. WorkerPool.start relies on NewProcCtxUnique handing every
// worker its own rng stream (and never the fixed replay seed, which
// remains reserved for the deterministic single-worker path).
func TestSnapshotParallelWorkersGetUniqueRngStreams(t *testing.T) {
	seen := map[uint64]bool{}
	for w := 0; w < 8; w++ {
		s := NewProcCtxUnique().Ctx.rng
		if s == rngSeed {
			t.Fatalf("a parallel worker got the fixed replay seed %#x: workers would flip coins in lockstep", s)
		}
		if seen[s] {
			t.Fatalf("two parallel workers share rng stream %#x", s)
		}
		seen[s] = true
	}
}
