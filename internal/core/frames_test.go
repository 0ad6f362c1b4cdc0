package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// writeFrameTrace serializes ps into a FLYMTRC file and mmaps it back, so
// the frame engine runs over exactly the records the packet path sees.
func writeFrameTrace(t *testing.T, ps []packet.Packet) *mmtrace.Trace {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if err := w.WritePacket(&ps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "frames.fmt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mt, err := mmtrace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mt.Close() })
	return mt
}

// buildFramesPipeline assembles a pipeline that exercises every feature the
// frame engine vectorizes: match-all CMS rows, filtered multi-rule CMUs
// (first-match selection), metadata and bus parameters, Max/AndOr/Xor ops,
// BitSelect/Coupon/IntervalSub/ZeroGate preparations, DetectNew, a
// cross-group ChainMin chain, and XOR key selectors.
func buildFramesPipeline(t *testing.T) *Pipeline {
	t.Helper()
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g0, 1, 3, 4096)

	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	for u, k := range []packet.KeySpec{packet.KeyFiveTuple, packet.KeySrcIP, packet.KeyDstIP} {
		if err := g1.ConfigureUnit(u, k); err != nil {
			t.Fatal(err)
		}
	}
	// CMU 0: two filtered rules, disjoint traffic — first-match selection.
	if err := g1.CMU(0).InstallRule(&Rule{
		TaskID: 10, Filter: packet.Filter{Proto: 6},
		Key: FullKey(0), P1: PacketSize(), P2: MaxValue(),
		Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
	}); err != nil {
		t.Fatal(err)
	}
	if err := g1.CMU(0).InstallRule(&Rule{
		TaskID: 11, Filter: packet.Filter{Proto: 17},
		Key: XorKey(1, 2), P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 2048, Buckets: 2048}, Op: dataplane.OpCondAdd,
	}); err != nil {
		t.Fatal(err)
	}
	// CMU 1: queue-depth maximum over metadata.
	if err := g1.CMU(1).InstallRule(&Rule{
		TaskID: 12, Filter: packet.MatchAll,
		Key: FullKey(1).SubRange(3, 32), P1: QueueLength(), P2: Const(0),
		Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpMax,
	}); err != nil {
		t.Fatal(err)
	}
	// CMU 2: bit-packed Bloom filter classifying new flows for g2's chain.
	if err := g1.CMU(2).InstallRule(&Rule{
		TaskID: 13, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(5, 32), P1: CompressedKey(FullKey(0).SubRange(17, 5)),
		P2: Const(1), Prep: Transform{Kind: TransformBitSelect, Width: 32},
		Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpAndOr,
		DetectNew: true,
	}); err != nil {
		t.Fatal(err)
	}

	g2 := NewGroup(GroupConfig{ID: 2, Buckets: 4096, BitWidth: 32})
	for u, k := range []packet.KeySpec{packet.KeyFiveTuple, packet.KeySrcIP} {
		if err := g2.ConfigureUnit(u, k); err != nil {
			t.Fatal(err)
		}
	}
	// CMU 0: ChainMin CMS row — lowers the running minimum.
	if err := g2.CMU(0).InstallRule(&Rule{
		TaskID: 20, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(7, 32), P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd,
		ChainMin: true,
	}); err != nil {
		t.Fatal(err)
	}
	// CMU 1: max inter-arrival — IntervalSub consumes the bus (PrevOld,
	// PrevNewFlow) and can drop the update.
	if err := g2.CMU(1).InstallRule(&Rule{
		TaskID: 21, Filter: packet.MatchAll,
		Key: FullKey(1), P1: TimestampUs(), P2: Const(0),
		Prep: Transform{Kind: TransformIntervalSub},
		Mem:  MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpMax,
	}); err != nil {
		t.Fatal(err)
	}
	// CMU 2: Coupon draw (pure hash-bit draw, no rng) XORed under a
	// PrevResult parameter feed.
	if err := g2.CMU(2).InstallRule(&Rule{
		TaskID: 22, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(11, 32), P1: CompressedKey(FullKey(1).SubRange(2, 32)),
		P2: PrevResult(), Prep: Transform{Kind: TransformCoupon, Coupons: 8, ProbLog2: 2},
		Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpAndOr,
	}); err != nil {
		t.Fatal(err)
	}

	g3 := NewGroup(GroupConfig{ID: 3, Buckets: 4096, BitWidth: 32})
	if err := g3.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	// ZeroGate carry judgement over the bus, XOR op.
	if err := g3.CMU(0).InstallRule(&Rule{
		TaskID: 30, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(13, 32), P1: PrevOld(), P2: Const(0),
		Prep: Transform{Kind: TransformZeroGate, IfZero: 7, Else: 3},
		Mem:  MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpXor,
	}); err != nil {
		t.Fatal(err)
	}

	return NewPipelineWith(g0, g1, g2, g3)
}

// compareAllRegisters fails on the first bucket where the two pipelines'
// register state differs.
func compareAllRegisters(t *testing.T, want, got *Pipeline) {
	t.Helper()
	for gi := 0; gi < want.Groups(); gi++ {
		for ci := 0; ci < want.Group(gi).CMUs(); ci++ {
			rw := want.Group(gi).CMU(ci).Register()
			rg := got.Group(gi).CMU(ci).Register()
			for b := uint32(0); b < uint32(rw.Size()); b++ {
				if rw.Read(b) != rg.Read(b) {
					t.Fatalf("group %d CMU %d bucket %d: frame engine %d, packet path %d",
						gi, ci, b, rg.Read(b), rw.Read(b))
				}
			}
		}
	}
}

// TestProcessFramesMatchesProcessBatch is the frame engine's core
// differential guarantee: over the full feature matrix, ProcessFrames on
// raw records is bit-identical to decoding and processing the same packets
// sequentially — including when the span boundaries fall at awkward
// offsets relative to the engine's internal chunking.
func TestProcessFramesMatchesProcessBatch(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 400, Packets: 20_000, Seed: 11})
	mt := writeFrameTrace(t, tr.Packets)

	want := buildFramesPipeline(t)
	want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	got := buildFramesPipeline(t)
	s := got.Compile()
	if !s.FrameVectorized() {
		t.Fatal("feature-matrix pipeline must be frame-vectorizable")
	}
	// Uneven spans: smaller than, straddling, and larger than frameChunk.
	pc := NewProcCtx()
	spans := []int{1, 3, 100, frameChunk - 1, frameChunk, frameChunk + 1, 1000, 1 << 30}
	lo := 0
	for _, n := range spans {
		hi := lo + n
		if hi > mt.Frames() {
			hi = mt.Frames()
		}
		s.ProcessFrames(pc, mt, lo, hi)
		lo = hi
	}
	if lo != mt.Frames() {
		t.Fatalf("span schedule covered %d of %d frames", lo, mt.Frames())
	}

	compareAllRegisters(t, want, got)
	if want.Packets() != got.Packets() {
		t.Fatalf("packet counters differ: %d vs %d", want.Packets(), got.Packets())
	}
}

// TestProcessFramesShardedMatchesSequential: the frame engine through a
// lane-owning context, drained, must equal the sequential packet path. Uses
// the mergeable CMS pipeline (bus consumers would pin rules to CAS).
func TestProcessFramesShardedMatchesSequential(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, Seed: 12})
	mt := writeFrameTrace(t, tr.Packets)

	build := func() *Pipeline {
		g := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
		buildCMS(t, g, 1, 3, 4096)
		return NewPipelineWith(g)
	}

	want := build()
	want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	const shards = 2
	got := build()
	got.EnableSharding(shards)
	s := got.Compile()
	half := mt.Frames() / 2
	for w := 0; w < shards; w++ {
		pc := NewProcCtxUnique()
		pc.Ctx.Shard = int32(w)
		lo, hi := 0, half
		if w == 1 {
			lo, hi = half, mt.Frames()
		}
		s.ProcessFrames(pc, mt, lo, hi)
	}
	got.DrainShards()
	compareAllRegisters(t, want, got)
}

// TestProcessFramesFallbacks: snapshots the vectorizer rejects —
// probabilistic rules (rng coin order) and live spliced groups
// (recirculation) — must take the per-frame decode path and still match the
// packet path bit for bit, rng stream included.
func TestProcessFramesFallbacks(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 8_000, Seed: 13})
	mt := writeFrameTrace(t, tr.Packets)

	t.Run("probabilistic", func(t *testing.T) {
		build := func() *Pipeline {
			g := NewGroup(GroupConfig{ID: 0, Buckets: 2048, BitWidth: 32})
			if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
				t.Fatal(err)
			}
			if err := g.CMU(0).InstallRule(&Rule{
				TaskID: 1, Filter: packet.MatchAll,
				Key: FullKey(0), P1: Const(1), P2: MaxValue(),
				Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
				Prob: 0.5,
			}); err != nil {
				t.Fatal(err)
			}
			return NewPipelineWith(g)
		}
		want := build()
		want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

		got := build()
		s := got.Compile()
		if s.FrameVectorized() {
			t.Fatal("probabilistic rule must disable vectorization")
		}
		s.ProcessFrames(NewProcCtx(), mt, 0, mt.Frames())
		compareAllRegisters(t, want, got)
	})

	t.Run("spliced", func(t *testing.T) {
		build := func() *Pipeline {
			pl := NewPipeline(0)
			g := NewGroup(GroupConfig{ID: 0, Buckets: 2048, BitWidth: 32})
			buildCMS(t, g, 1, 1, 2048)
			pl.groups = append(pl.groups, g)
			sp := NewGroup(GroupConfig{ID: 100, Buckets: 2048, BitWidth: 32})
			buildCMS(t, sp, 2, 1, 2048)
			if err := pl.AddSpliced(sp); err != nil {
				t.Fatal(err)
			}
			return pl
		}
		want := build()
		want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

		got := build()
		s := got.Compile()
		if s.FrameVectorized() {
			t.Fatal("live spliced group must disable vectorization")
		}
		s.ProcessFrames(NewProcCtx(), mt, 0, mt.Frames())
		compareAllRegisters(t, want, got)
		if want.Recirculated() != got.Recirculated() {
			t.Fatalf("recirculation counters differ: %d vs %d", want.Recirculated(), got.Recirculated())
		}
	})
}

// TestProcessFramesZeroAlloc: after the first span of a configuration, the
// frame engine allocates nothing (matched by `make bench-allocs`).
func TestProcessFramesZeroAlloc(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 4_096, Seed: 14})
	mt := writeFrameTrace(t, tr.Packets)
	s := buildFramesPipeline(t).Compile()
	pc := NewProcCtx()
	s.ProcessFrames(pc, mt, 0, mt.Frames()) // warm scratch
	if n := testing.AllocsPerRun(20, func() {
		s.ProcessFrames(pc, mt, 0, mt.Frames())
	}); n != 0 {
		t.Fatalf("ProcessFrames allocates %.1f times per span, want 0", n)
	}
}

// TestProcessFramesQuietAddPath pins the frequency-sketch fast path: in a
// bus-quiet snapshot the engine routes constant saturating adds through the
// witness-free fetch-and-add (full-width registers) or falls back to the
// generic batch loop (narrow registers, where saturation and clamp
// accounting are live). Both must stay bit-identical to the sequential
// packet path, clamp counters included.
func TestProcessFramesQuietAddPath(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, Seed: 19})
	mt := writeFrameTrace(t, tr.Packets)

	for _, tc := range []struct {
		name    string
		width   int
		buckets int
	}{
		{"full-width", 32, 4096}, // ApplyAddBatch: one XADD per update
		{"narrow", 8, 256},       // generic fallback: clamps and saturation live
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Pipeline {
				g := NewGroup(GroupConfig{ID: 0, Buckets: tc.buckets, BitWidth: tc.width})
				buildCMS(t, g, 1, 3, tc.buckets)
				return NewPipelineWith(g)
			}
			want := build()
			want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

			got := build()
			s := got.Compile()
			if !s.busQuiet {
				t.Fatal("CMS pipeline must compile bus-quiet")
			}
			if !s.groups[0].cmus[0].prog[0].fastAdd {
				t.Fatal("CMS row must compile as fastAdd")
			}
			if full := s.groups[0].cmus[0].prog[0].fastAddFull; full != (tc.width == 32) {
				t.Fatalf("fastAddFull = %v for %d-bit register", full, tc.width)
			}
			s.ProcessFrames(NewProcCtx(), mt, 0, mt.Frames())

			compareAllRegisters(t, want, got)
			rw := want.Group(0).CMU(0).Register()
			rg := got.Group(0).CMU(0).Register()
			if rg.Clamps() != rw.Clamps() {
				t.Fatalf("clamp counters differ: frame engine %d, packet path %d",
					rg.Clamps(), rw.Clamps())
			}
		})
	}

	// Narrow sharded lanes: ShardApplyAddBatch must reproduce ShardApply's
	// saturation and clamp accounting through the drain.
	t.Run("narrow-sharded", func(t *testing.T) {
		build := func() *Pipeline {
			g := NewGroup(GroupConfig{ID: 0, Buckets: 256, BitWidth: 8})
			buildCMS(t, g, 1, 3, 256)
			return NewPipelineWith(g)
		}
		want := build()
		want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

		got := build()
		got.EnableSharding(2)
		s := got.Compile()
		half := mt.Frames() / 2
		for w := 0; w < 2; w++ {
			pc := NewProcCtxUnique()
			pc.Ctx.Shard = int32(w)
			lo, hi := 0, half
			if w == 1 {
				lo, hi = half, mt.Frames()
			}
			s.ProcessFrames(pc, mt, lo, hi)
		}
		got.DrainShards()
		compareAllRegisters(t, want, got)
	})
}
