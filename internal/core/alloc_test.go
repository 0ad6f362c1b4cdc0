package core

import (
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// Alloc-regression gates for the data-plane hot path. The compiled engine's
// contract is zero heap allocations per packet once a worker's ProcCtx
// scratch has grown to the snapshot's sizes (testing.AllocsPerRun's warm-up
// call covers that growth). Any alloc that sneaks back in — a key escaping
// into a hash, a slice re-grown per packet, a closure capture — fails here
// long before it shows up in a benchmark.

// allocPipeline builds the same shape as the hot-path benchmarks: multiple
// groups, multi-row CMS tasks, a filtered task with a distinct mask, and a
// probabilistic rule, so every compiled-rule phase executes.
func allocPipeline(t *testing.T) *Pipeline {
	t.Helper()
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g0, 1, 3, 4096)
	if err := g1.ConfigureUnit(0, packet.KeyDstIP); err != nil {
		t.Fatal(err)
	}
	filtered := &Rule{
		TaskID: 2, Filter: packet.Filter{Proto: 6},
		Key: FullKey(0), P1: PacketSize(), P2: MaxValue(),
		Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
	}
	sampled := &Rule{
		TaskID: 3, Filter: packet.Filter{Proto: 17},
		Key: FullKey(0), P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 2048, Buckets: 2048}, Op: dataplane.OpCondAdd,
		Prob: 0.5,
	}
	for _, r := range []*Rule{filtered, sampled} {
		if err := g1.CMU(0).InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g0, g1)
}

func TestSnapshotProcessZeroAlloc(t *testing.T) {
	s := allocPipeline(t).Compile()
	pc := NewProcCtx()
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 256, Seed: 3})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		s.Process(pc, &tr.Packets[i&255])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Snapshot.Process allocates %.1f times per packet, want 0", allocs)
	}
}

func TestSnapshotProcessBatchZeroAllocSteadyState(t *testing.T) {
	// A fresh ProcCtx per call is the one fixed allocation; per packet the
	// cost must amortize to ~0. Gate on a generous fraction so the test
	// catches per-packet regressions without flaking on the fixed per-call
	// overhead.
	s := allocPipeline(t).Compile()
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 4096, Seed: 3})
	allocs := testing.AllocsPerRun(10, func() {
		s.ProcessBatchCtx(NewProcCtx(), tr.Packets)
	})
	perPacket := allocs / float64(len(tr.Packets))
	if perPacket > 0.01 {
		t.Fatalf("Snapshot.ProcessBatchCtx allocates %.4f per packet, want ~0 (fixed per-call ProcCtx only)", perPacket)
	}
}

func TestCMUProcessZeroAlloc(t *testing.T) {
	// The interpretive per-CMU path must also run allocation-free: it
	// shares the hashing and register layers with the compiled path.
	g := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g, 1, 3, 4096)
	cmu := g.CMU(0)
	keys := g.CompressedKeys(&packet.Packet{SrcIP: 1, DstIP: 2, Proto: 6})
	ctx := Context{Pkt: &packet.Packet{SrcIP: 1, DstIP: 2, Proto: 6}, RunningMin: ^uint32(0)}
	allocs := testing.AllocsPerRun(1000, func() {
		cmu.Process(&ctx, keys)
	})
	if allocs != 0 {
		t.Fatalf("CMU.Process allocates %.1f times per packet, want 0", allocs)
	}
}

func TestInterpretivePipelineZeroAlloc(t *testing.T) {
	pl := allocPipeline(t)
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 256, Seed: 3})
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		pl.Process(&tr.Packets[i&255])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Pipeline.Process allocates %.1f times per packet, want 0", allocs)
	}
}
