package core

import (
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// Tests for the compiled engine's sharded execution mode: compile-time
// routing verdicts, lane-partition equivalence through the worker pool, and
// the zero-alloc contract of the sharded hot path.

func TestShardedRoutingVerdicts(t *testing.T) {
	g := NewGroup(GroupConfig{ID: 0, Buckets: 1024, BitWidth: 32})
	g2 := NewGroup(GroupConfig{ID: 1, Buckets: 1024, BitWidth: 32})
	buildCMS(t, g, 1, 3, 512)
	if err := g2.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	pl := NewPipelineWith(g, g2)

	// Without lanes nothing can shard.
	sharded, fallback := pl.Compile().ShardedRules()
	if sharded != 0 || fallback != 3 {
		t.Fatalf("unsharded pipeline: verdicts (%d, %d), want (0, 3)", sharded, fallback)
	}

	pl.EnableSharding(4)
	sharded, fallback = pl.Compile().ShardedRules()
	if sharded != 3 || fallback != 0 {
		t.Fatalf("CMS rules are exactly mergeable: verdicts (%d, %d), want (3, 0)", sharded, fallback)
	}

	// One result-bus consumer anywhere pins the whole snapshot to the CAS
	// path — lane-local bus values would be wrong.
	busRule := &Rule{
		TaskID: 2, Filter: packet.MatchAll, Key: FullKey(0),
		P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 512, Buckets: 512}, Op: dataplane.OpMax,
		ChainMin: true,
	}
	if err := g2.CMU(0).InstallRule(busRule); err != nil {
		t.Fatal(err)
	}
	sharded, fallback = pl.Compile().ShardedRules()
	if sharded != 0 || fallback != 4 {
		t.Fatalf("bus consumer present: verdicts (%d, %d), want (0, 4)", sharded, fallback)
	}
}

func TestShardedVerdictPerOpShape(t *testing.T) {
	// Each rule shape's expected verdict, mirroring shardEligible's cases.
	cases := []struct {
		name string
		rule Rule
		want bool
	}{
		{"condadd-at-saturation", Rule{P1: Const(1), P2: MaxValue(), Op: dataplane.OpCondAdd}, true},
		{"condadd-threshold", Rule{P1: Const(1), P2: Const(100), Op: dataplane.OpCondAdd}, false},
		{"condadd-dynamic-p2", Rule{P1: Const(1), P2: PacketSize(), Op: dataplane.OpCondAdd}, false},
		{"max", Rule{P1: PacketSize(), P2: Const(0), Op: dataplane.OpMax}, true},
		{"xor-bitselect", Rule{P1: CompressedKey(FullKey(0)), P2: Const(0), Op: dataplane.OpXor,
			Prep: Transform{Kind: TransformBitSelect, Width: 32}}, true},
		{"andor-or-const", Rule{P1: Const(1), P2: Const(1), Op: dataplane.OpAndOr}, true},
		{"andor-and-branch", Rule{P1: Const(1), P2: Const(0), Op: dataplane.OpAndOr}, false},
		{"andor-coupon", Rule{P1: CompressedKey(FullKey(0)), P2: Const(1), Op: dataplane.OpAndOr,
			Prep: Transform{Kind: TransformCoupon, Coupons: 8, ProbLog2: 1}}, true},
		{"detectnew-producer", Rule{P1: Const(1), P2: Const(1), Op: dataplane.OpAndOr,
			DetectNew: true}, false},
		{"prevresult-consumer", Rule{P1: PrevResult(), P2: MaxValue(), Op: dataplane.OpCondAdd}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.rule
			r.TaskID, r.Filter, r.Key = 1, packet.MatchAll, FullKey(0)
			r.Mem = MemRange{Base: 0, Buckets: 1024}
			if got := shardEligible(&r, ^uint32(0)); got != c.want {
				t.Fatalf("shardEligible = %v, want %v", got, c.want)
			}
		})
	}
}

// TestShardedPoolEquivalence runs the same trace through (a) a sequential
// snapshot replay and (b) a sharded worker pool with private lanes, then
// drains and compares every register bucket. CMS counts are exactly
// mergeable, so the states must be bit-identical regardless of which worker
// drained which span.
func TestShardedPoolEquivalence(t *testing.T) {
	const workers = 4
	build := func() (*Pipeline, *Group) {
		g := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
		buildCMS(t, g, 1, 3, 4096)
		return NewPipelineWith(g), g
	}
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 20_000, Seed: 11})

	seqPl, seqG := build()
	seqPl.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	shPl, shG := build()
	shPl.EnableSharding(workers)
	snap := shPl.Compile()
	if s, _ := snap.ShardedRules(); s == 0 {
		t.Fatal("no rules sharded; test would not exercise lanes")
	}
	pool := NewWorkerPool(workers, true)
	defer pool.Close()
	// Several replays, with a drain in the middle: post-drain lane reuse
	// must keep folding exactly.
	third := len(tr.Packets) / 3
	replayThrough(pool, snap, tr.Packets[:third])
	if shPl.DrainShards() == 0 {
		t.Fatal("first drain folded nothing; lanes were not written")
	}
	replayThrough(pool, snap, tr.Packets[third:2*third])
	replayThrough(pool, snap, tr.Packets[2*third:])
	shPl.DrainShards()

	reg, want := shG.CMU(0).Register(), seqG.CMU(0).Register()
	for ci := 0; ci < 3; ci++ {
		got := shG.CMU(ci).Register().ReadRange(0, reg.Size())
		exp := seqG.CMU(ci).Register().ReadRange(0, want.Size())
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("CMU %d bucket %d: sharded %d, sequential %d", ci, i, got[i], exp[i])
			}
		}
	}
}

// TestDrainShardsCursor verifies the pipeline-level drain skips clean
// registers via the dirtiness cursor.
func TestDrainShardsCursor(t *testing.T) {
	g := NewGroup(GroupConfig{ID: 0, Buckets: 256, BitWidth: 32})
	buildCMS(t, g, 1, 1, 256)
	pl := NewPipelineWith(g)
	pl.EnableSharding(2)
	if n := pl.DrainShards(); n != 0 {
		t.Fatalf("drain of a clean pipeline folded %d, want 0", n)
	}
	g.CMU(0).Register().ShardApply(1, dataplane.OpCondAdd, 7, 3, ^uint32(0))
	if n := pl.DrainShards(); n != 1 {
		t.Fatalf("drain folded %d buckets, want 1", n)
	}
	if n := pl.DrainShards(); n != 0 {
		t.Fatalf("re-drain folded %d, want 0 (cursor should skip)", n)
	}
}

// TestShardedProcessZeroAlloc gates the sharded hot path at zero heap
// allocations per packet, same contract as the CAS path.
func TestShardedProcessZeroAlloc(t *testing.T) {
	g := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g, 1, 3, 4096)
	pl := NewPipelineWith(g)
	pl.EnableSharding(4)
	s := pl.Compile()
	if sh, _ := s.ShardedRules(); sh == 0 {
		t.Fatal("no sharded rules; gate would test the wrong path")
	}
	pc := NewProcCtxUnique()
	pc.Ctx.Shard = 2 // a lane-owning worker's context
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 256, Seed: 5})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Process(pc, &tr.Packets[i&255])
		i++
	})
	if allocs != 0 {
		t.Fatalf("sharded Snapshot.Process allocates %.1f times per packet, want 0", allocs)
	}
}
