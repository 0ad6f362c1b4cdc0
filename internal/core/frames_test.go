package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
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

// buildColumnsPipeline assembles the rule shapes buildFramesPipeline does
// not run, so every parameter and preparation column kernel meets the
// differential oracle: a QueueDelay maximum, an HLL-style LZRank register, a
// MaxValue increment, a Coupon with ProbLog2 0 beside a bit select of
// non-power-of-two width (first-match selected), a narrow bit select, and
// CondAdd/Max/AndOr on a 16-bit register. With quiet false a fourth group
// reads the result bus (PrevOld, PrevResult), which turns off the
// snapshot's bus-quiet shortcuts and switches the witness scatter on.
func buildColumnsPipeline(t *testing.T, quiet bool) *Pipeline {
	t.Helper()
	install := func(g *Group, ci int, r *Rule) {
		t.Helper()
		if err := g.CMU(ci).InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	units := func(g *Group, keys ...packet.KeySpec) *Group {
		t.Helper()
		for u, k := range keys {
			if err := g.ConfigureUnit(u, k); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	all := MemRange{Base: 0, Buckets: 4096}

	g0 := units(NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32}),
		packet.KeyFiveTuple, packet.KeySrcIP, packet.KeyDstIP)
	install(g0, 0, &Rule{TaskID: 40, Filter: packet.MatchAll,
		Key: FullKey(0), P1: QueueDelay(), P2: Const(0), Mem: all, Op: dataplane.OpMax})
	install(g0, 1, &Rule{TaskID: 41, Filter: packet.Filter{Proto: 6},
		Key: FullKey(1).SubRange(3, 32), P1: MaxValue(), P2: Const(1 << 20), Mem: all, Op: dataplane.OpCondAdd})
	install(g0, 2, &Rule{TaskID: 42, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(9, 32), P1: CompressedKey(FullKey(2).SubRange(12, 20)), P2: Const(0),
		Prep: Transform{Kind: TransformLZRank, Discard: 12}, Mem: all, Op: dataplane.OpMax})

	g1 := units(NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32}),
		packet.KeyFiveTuple, packet.KeySrcIP)
	install(g1, 0, &Rule{TaskID: 50, Filter: packet.Filter{Proto: 6},
		Key: FullKey(0), P1: CompressedKey(FullKey(1)), P2: Const(0),
		Prep: Transform{Kind: TransformCoupon, Coupons: 4, ProbLog2: 0},
		Mem:  MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpAndOr})
	install(g1, 0, &Rule{TaskID: 51, Filter: packet.Filter{Proto: 17},
		Key: FullKey(0).SubRange(5, 32), P1: CompressedKey(FullKey(1).SubRange(7, 32)), P2: Const(1),
		Prep: Transform{Kind: TransformBitSelect, Width: 5},
		Mem:  MemRange{Base: 2048, Buckets: 2048}, Op: dataplane.OpAndOr})
	install(g1, 1, &Rule{TaskID: 52, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(13, 32), P1: CompressedKey(XorKey(0, 1)), P2: Const(1),
		Prep: Transform{Kind: TransformBitSelect, Width: 8}, Mem: all, Op: dataplane.OpAndOr})

	narrow := MemRange{Base: 0, Buckets: 1024}
	g2 := units(NewGroup(GroupConfig{ID: 2, Buckets: 1024, BitWidth: 16}), packet.KeyFiveTuple)
	install(g2, 0, &Rule{TaskID: 60, Filter: packet.MatchAll, // 64 buckets: saturates
		Key: FullKey(0).SubRange(4, 32), P1: PacketSize(), P2: MaxValue(),
		Mem: MemRange{Base: 0, Buckets: 64}, Op: dataplane.OpCondAdd})
	install(g2, 1, &Rule{TaskID: 61, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(14, 32), P1: TimestampUs(), P2: Const(0), Mem: narrow, Op: dataplane.OpMax})
	install(g2, 2, &Rule{TaskID: 62, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(24, 32), P1: CompressedKey(FullKey(0).SubRange(2, 32)), P2: Const(1),
		Prep: Transform{Kind: TransformBitSelect, Width: 16}, Mem: narrow, Op: dataplane.OpAndOr})
	if quiet {
		return NewPipelineWith(g0, g1, g2)
	}

	g3 := units(NewGroup(GroupConfig{ID: 3, Buckets: 4096, BitWidth: 32}), packet.KeyFiveTuple)
	install(g3, 0, &Rule{TaskID: 70, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(6, 32), P1: PrevOld(), P2: Const(0),
		Prep: Transform{Kind: TransformZeroGate, IfZero: 7, Else: 3}, Mem: all, Op: dataplane.OpXor})
	install(g3, 1, &Rule{TaskID: 71, Filter: packet.MatchAll,
		Key: FullKey(0).SubRange(17, 32), P1: PrevResult(), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd})
	return NewPipelineWith(g0, g1, g2, g3)
}

// writePolicies are the register write policies the frame engine must be
// bit-identical under (dataplane.Register.SetSingleWriter): shared buckets
// (CAS and fetch-and-add) and a single writer (plain stores).
var writePolicies = []struct {
	name   string
	single bool
}{{"shared", false}, {"single-writer", true}}

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
// differential guarantee: over the full feature matrix and under either
// register write policy, ProcessFrames on raw records is bit-identical to
// decoding and processing the same packets sequentially on shared buckets
// — including when the span boundaries fall at awkward offsets relative to
// the engine's internal chunking.
func TestProcessFramesMatchesProcessBatch(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 400, Packets: 20_000, Seed: 11})
	mt := writeFrameTrace(t, tr.Packets)

	want := buildFramesPipeline(t)
	want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

	for _, pol := range writePolicies {
		t.Run(pol.name, func(t *testing.T) {
			got := buildFramesPipeline(t)
			got.SetSingleWriter(pol.single)
			s := got.Compile()
			if !s.FrameVectorized() {
				t.Fatal("feature-matrix pipeline must be frame-vectorizable")
			}
			// Uneven spans: smaller than, straddling, and larger than FrameChunk.
			pc := NewProcCtx()
			spans := []int{1, 3, 100, FrameChunk - 1, FrameChunk, FrameChunk + 1, 1000, 1 << 30}
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
		})
	}
}

// cmsPipeline is one group holding a three-row five-tuple CMS on registers
// of the given width and bucket count.
func cmsPipeline(t *testing.T, width, buckets int) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: buckets, BitWidth: width})
	buildCMS(t, g, 1, 3, buckets)
	return NewPipelineWith(g)
}

// TestProcessFramesShardedMatchesSequential: the frame engine through a
// lane-owning context, drained, must equal the sequential packet path. Uses
// the mergeable CMS pipeline (bus consumers would pin rules to CAS).
func TestProcessFramesShardedMatchesSequential(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, Seed: 12})
	mt := writeFrameTrace(t, tr.Packets)

	build := func() *Pipeline { return cmsPipeline(t, 32, 4096) }

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

// sampledChurnShape is churnShape plus ingest_churn's probabilistic task: a
// three-row source-address CMS whose filter is the /8 prefix src8, sampled
// at p = 0.5. The sample keeps the snapshot off the column stage.
func sampledChurnShape(t *testing.T, src8 uint32) *Pipeline {
	t.Helper()
	pl := churnShape(t)
	g := NewGroup(GroupConfig{ID: 2, Buckets: 4096, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if err := g.CMU(ci).InstallRule(&Rule{
			TaskID: 5, Filter: packet.Filter{SrcPrefix: packet.Prefix{Value: src8 << 24, Bits: 8}},
			Key: FullKey(0).SubRange(8*ci, 32), P1: Const(1), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd, Prob: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pl.groups = append(pl.groups, g)
	return pl
}

// splicedOwnMask is a five-tuple CMS with a spliced group beside it that
// mirrors TCP packets into a destination-address CMS: a mask no main group
// reads, digested for the recirculated pass only.
func splicedOwnMask(t *testing.T) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: 2048, BitWidth: 32})
	buildCMS(t, g, 1, 2, 2048)
	pl := NewPipelineWith(g)
	sp := NewGroup(GroupConfig{ID: 100, Buckets: 2048, BitWidth: 32})
	if err := sp.ConfigureUnit(0, packet.KeyDstIP); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 2; ci++ {
		if err := sp.CMU(ci).InstallRule(&Rule{
			TaskID: 2, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0).SubRange(8*ci, 32), P1: PacketSize(), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.AddSpliced(sp); err != nil {
		t.Fatal(err)
	}
	return pl
}

// sampledShared is churnShape plus a group whose first two CMUs each share
// a sampled source-address rule (the /8 prefix 1, p = 0.5) with an
// unsampled TCP rule, the sampled one ahead in CMU 0 and behind in CMU 1,
// and whose CMU 2 holds an unsampled match-all rule. A TCP frame of the
// prefix draws a coin in CMU 0 and none in CMU 1, where the unsampled rule
// claims it first; a TCP frame outside the prefix draws none and still
// updates both CMUs. InstallRule admits intersecting filters on one CMU only
// when both rules are sampled, so the TCP rules are installed sampled and
// their sample lifted afterwards: the engine must follow first-match on
// whatever program it holds.
func sampledShared(t *testing.T) *Pipeline {
	t.Helper()
	pl := churnShape(t)
	g := NewGroup(GroupConfig{ID: 2, Buckets: 4096, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	sampled := func(ci int, base int) *Rule {
		return &Rule{TaskID: 5, Filter: packet.Filter{SrcPrefix: packet.Prefix{Value: 1 << 24, Bits: 8}},
			Key: FullKey(0).SubRange(8*ci, 32), P1: Const(1), P2: MaxValue(),
			Mem: MemRange{Base: base, Buckets: 2048}, Op: dataplane.OpCondAdd, Prob: 0.5}
	}
	var lift []*Rule
	tcp := func(ci int, base int) *Rule {
		r := &Rule{TaskID: 6, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0).SubRange(8*ci+3, 32), P1: PacketSize(), P2: MaxValue(),
			Mem: MemRange{Base: base, Buckets: 2048}, Op: dataplane.OpCondAdd, Prob: 0.5}
		lift = append(lift, r)
		return r
	}
	for _, ir := range []struct {
		ci int
		r  *Rule
	}{
		{0, sampled(0, 0)}, {0, tcp(0, 2048)},
		{1, tcp(1, 0)}, {1, sampled(1, 2048)},
		{2, &Rule{TaskID: 7, Filter: packet.MatchAll, Key: FullKey(0).SubRange(5, 32), P1: QueueLength(),
			P2: Const(0), Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpMax}},
	} {
		if err := g.CMU(ir.ci).InstallRule(ir.r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range lift {
		r.Prob = 0
	}
	pl.groups = append(pl.groups, g)
	return pl
}

// sampledTwice is churnShape plus two sampled tasks in groups of their own:
// sampledChurnShape's source-address CMS at p = 0.5 and a two-row
// destination-address CMS over TCP at p = 0.25. A TCP frame of the prefix
// draws five coins, alternating between the tasks' groups in pipeline
// order.
func sampledTwice(t *testing.T) *Pipeline {
	t.Helper()
	pl := sampledChurnShape(t, 1)
	g := NewGroup(GroupConfig{ID: 3, Buckets: 4096, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeyDstIP); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 2; ci++ {
		if err := g.CMU(ci).InstallRule(&Rule{
			TaskID: 8, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0).SubRange(8*ci, 32), P1: PacketSize(), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd, Prob: 0.25,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pl.groups = append(pl.groups, g)
	return pl
}

// sampledSpliced is splicedOwnMask plus sampledChurnShape's sampled task in
// a main group of its own, and a UDP rule sampled at p = 0.5 in CMU 2 of
// the spliced group: a frame draws its main-pass coins, then, mirrored,
// its spliced one.
func sampledSpliced(t *testing.T) *Pipeline {
	t.Helper()
	pl := splicedOwnMask(t)
	g := NewGroup(GroupConfig{ID: 2, Buckets: 4096, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if err := g.CMU(ci).InstallRule(&Rule{
			TaskID: 5, Filter: packet.Filter{SrcPrefix: packet.Prefix{Value: 1 << 24, Bits: 8}},
			Key: FullKey(0).SubRange(8*ci, 32), P1: Const(1), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd, Prob: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	pl.groups = append(pl.groups, g)
	if err := pl.spliced[0].CMU(2).InstallRule(&Rule{
		TaskID: 3, Filter: packet.Filter{Proto: 17},
		Key: FullKey(0).SubRange(4, 32), P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd, Prob: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	return pl
}

// sampledBus puts a sampled SuMax(Sum) row ahead of an unsampled one on a
// min chain: CMU 0 of groups 0 and 1 holds task 1, sampled at p = 0.5, and
// CMU 1 task 2, unsampled, whose conditional adds read the running minimum
// task 1's rows leave on the bus. A match-all five-tuple CMS in group 2
// reads no bus at all. The chain reads per-packet bus state in pipeline
// order, so every main-pass CMU must run in packet order.
func sampledBus(t *testing.T) *Pipeline {
	t.Helper()
	groups := make([]*Group, 3)
	for gi := range groups {
		groups[gi] = NewGroup(GroupConfig{ID: gi, Buckets: 2048, BitWidth: 32})
	}
	for gi, g := range groups[:2] {
		if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
			t.Fatal(err)
		}
		for ci, prob := range []float64{0.5, 0} {
			if err := g.CMU(ci).InstallRule(&Rule{
				TaskID: 1 + ci, Filter: packet.MatchAll,
				Key: FullKey(0).SubRange(8*ci+gi, 32), P1: PacketSize(), P2: MaxValue(),
				Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
				ChainMin: true, Prob: prob,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	buildCMS(t, groups[2], 3, 3, 2048)
	return NewPipelineWith(groups...)
}

// taskHits sums the rule hits of task id in a telemetry fold.
func taskHits(tele telemetry.DataPlane, id int) uint64 {
	n := uint64(0)
	for _, r := range tele.Rules {
		if r.Task == id {
			n += r.Hits
		}
	}
	return n
}

// sampledRow is one five-tuple counter row sampled at p = 0.5.
func sampledRow(t *testing.T) *Pipeline {
	t.Helper()
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

// splicedRow is a one-row five-tuple CMS beside a spliced group mirroring
// every packet into another.
func splicedRow(t *testing.T) *Pipeline {
	t.Helper()
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

// TestProcessFramesFallbacks: snapshots with rules the column stage cannot
// run — sampled rules (rng coin order) and live spliced groups
// (recirculation) — run those in packet order, every other CMU of a
// bus-quiet main pass on the column stage, and still match the packet path
// bit for bit, rng stream included.
func TestProcessFramesFallbacks(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 200, Packets: 8_000, Seed: 13})
	mt := writeFrameTrace(t, tr.Packets)

	t.Run("probabilistic", func(t *testing.T) {
		build := func() *Pipeline { return sampledRow(t) }
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
		build := func() *Pipeline { return splicedRow(t) }
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

	// The packet-order path groups and digests per chunk; spans cut off
	// the chunk width must not move a coin, a recirculation or a drop.
	// framesMatchBatch also requires the rng streams to end alike and the
	// next packets through both contexts to land alike.
	spans := []int{100, FrameChunk + 37, 3}
	zipf := trace.Generate(trace.Config{Flows: 2000, Packets: 12_000, ZipfS: 1.1, Seed: 13})

	t.Run("churn-sampled", func(t *testing.T) {
		// Two source /8s share the traffic, so the sampled task sees about
		// a thousand flows and which frame draws which coin shows in its
		// rows.
		ps := slices.Clone(zipf.Packets)
		for i := range ps {
			ps[i].SrcIP = ps[i].SrcIP&0x00ff_ffff | (ps[i].SrcIP&1)<<24
		}
		s, tele := framesMatchBatch(t, func() *Pipeline { return sampledChurnShape(t, 1) }, nil, ps, spans...)
		if s.FrameVectorized() || len(s.plan.column) != 6 {
			t.Fatalf("vectorised %v, %d column CMUs; want false, churnShape's 6", s.FrameVectorized(), len(s.plan.column))
		}
		if tele.Stages.Operation == tele.Stages.Initialization {
			t.Fatal("no coupon draw was dropped: the preparation stage went unexercised")
		}
		if sampled := taskHits(tele, 5); sampled == 0 || sampled == 3*uint64(len(ps)) {
			t.Fatalf("the sampled task ran %d times over %d packets: the coin went unexercised", sampled, len(ps))
		}
	})

	t.Run("spliced-own-mask", func(t *testing.T) {
		s, _ := framesMatchBatch(t, func() *Pipeline { return splicedOwnMask(t) }, nil, zipf.Packets, spans...)
		if s.FrameVectorized() || len(s.plan.column) != 2 {
			t.Fatalf("vectorised %v, %d column CMUs; want false, the main CMS's 2", s.FrameVectorized(), len(s.plan.column))
		}
		if len(s.masks) <= s.nMainMasks || s.pl.Recirculated() == 0 {
			t.Fatalf("%d masks, %d read by the main pass, %d recirculated: the spliced pass must read a mask of its own and run",
				len(s.masks), s.nMainMasks, s.pl.Recirculated())
		}
	})

	// The shapes the column / packet-order split must get right, over
	// traffic split between two source /8s and between TCP and UDP.
	split := slices.Clone(zipf.Packets)
	for i := range split {
		split[i].SrcIP = split[i].SrcIP&0x00ff_ffff | (split[i].SrcIP&1)<<24
	}
	awkward := []int{FrameChunk - 1, 7, 2*FrameChunk + 5}
	coins := func(t *testing.T, tele telemetry.DataPlane, task, rows int) {
		t.Helper()
		if n := taskHits(tele, task); n == 0 || n >= uint64(rows*len(split)) {
			t.Fatalf("sampled task %d ran %d times in %d rows over %d packets: the coin went unexercised", task, n, rows, len(split))
		}
	}

	t.Run("sampled-shares-cmu", func(t *testing.T) {
		s, tele := framesMatchBatch(t, func() *Pipeline { return sampledShared(t) }, nil, split, awkward...)
		if s.FrameVectorized() || len(s.plan.column) != 7 {
			t.Fatalf("vectorised %v, %d column CMUs; want false, 7 (all but the two shared ones)", s.FrameVectorized(), len(s.plan.column))
		}
		coins(t, tele, 5, 2)
		if n := taskHits(tele, 6); n == 0 {
			t.Fatal("the unsampled TCP rule never ran")
		}
	})

	t.Run("sampled-two-groups", func(t *testing.T) {
		s, tele := framesMatchBatch(t, func() *Pipeline { return sampledTwice(t) }, nil, split, awkward...)
		if s.FrameVectorized() || len(s.plan.column) != 6 {
			t.Fatalf("vectorised %v, %d column CMUs; want false, churnShape's 6", s.FrameVectorized(), len(s.plan.column))
		}
		coins(t, tele, 5, 3)
		coins(t, tele, 8, 2)
	})

	t.Run("sampled-spliced", func(t *testing.T) {
		s, tele := framesMatchBatch(t, func() *Pipeline { return sampledSpliced(t) }, nil, split, awkward...)
		if s.FrameVectorized() || len(s.plan.column) != 2 {
			t.Fatalf("vectorised %v, %d column CMUs; want false, the main CMS's 2", s.FrameVectorized(), len(s.plan.column))
		}
		coins(t, tele, 5, 3)
		coins(t, tele, 3, 1)
		if s.pl.Recirculated() == 0 {
			t.Fatal("nothing was recirculated: the spliced pass went unexercised")
		}
	})

	t.Run("sampled-bus", func(t *testing.T) {
		s, tele := framesMatchBatch(t, func() *Pipeline { return sampledBus(t) }, nil, split, awkward...)
		if s.FrameVectorized() || s.plan.quiet || len(s.plan.column) != 0 {
			t.Fatalf("vectorised %v, bus-quiet %v, %d column CMUs; want false, false, 0", s.FrameVectorized(), s.plan.quiet, len(s.plan.column))
		}
		coins(t, tele, 1, 2)
	})
}

// TestProcessFramesZeroAlloc: after the first span of a configuration, the
// frame engine allocates nothing (matched by `make bench-allocs`) — on the
// feature matrix, on every column shape, bus-quiet or not, and on the
// packet-order path of a probabilistic, a spliced, a probabilistic and
// spliced, and a probabilistic bus-consuming pipeline.
func TestProcessFramesZeroAlloc(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 100, Packets: 4_096, Seed: 14})
	mt := writeFrameTrace(t, tr.Packets)
	for name, pl := range map[string]*Pipeline{
		"features":        buildFramesPipeline(t),
		"columns-quiet":   buildColumnsPipeline(t, true),
		"columns-bus":     buildColumnsPipeline(t, false),
		"probabilistic":   sampledChurnShape(t, tr.Packets[0].SrcIP>>24),
		"spliced":         splicedOwnMask(t),
		"sampled-spliced": sampledSpliced(t),
		"sampled-bus":     sampledBus(t),
	} {
		s := pl.Compile()
		pc := NewProcCtx()
		s.ProcessFrames(pc, mt, 0, mt.Frames()) // warm scratch
		if n := testing.AllocsPerRun(20, func() {
			s.ProcessFrames(pc, mt, 0, mt.Frames())
		}); n != 0 {
			t.Fatalf("%s: ProcessFrames allocates %.1f times per span, want 0", name, n)
		}
	}
}

// TestProcessFramesColumnShapes runs buildColumnsPipeline, bus-quiet and
// not, under both write policies against the sequential oracle: registers,
// clamps (the 16-bit CondAdd saturates), rule hits and preparation drops.
func TestProcessFramesColumnShapes(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 400, Packets: 12_000, Seed: 15})
	for _, tc := range []struct {
		name  string
		quiet bool
	}{{"quiet", true}, {"bus", false}} {
		t.Run(tc.name, func(t *testing.T) {
			s, tele := framesMatchBatch(t, func() *Pipeline { return buildColumnsPipeline(t, tc.quiet) }, nil, tr.Packets)
			if !s.FrameVectorized() || s.plan.quiet != tc.quiet {
				t.Fatalf("vectorised %v, bus-quiet %v; want true, %v", s.FrameVectorized(), s.plan.quiet, tc.quiet)
			}
			if tele.Stages.Preparation == 0 || s.pl.Group(2).CMU(0).Register().Clamps() == 0 {
				t.Fatal("no preparation-stage work or no 16-bit clamp: the kernels went unexercised")
			}
		})
	}
}

// filteredBusPipeline reads the result bus behind a filtered first writer:
// group 0's only rule counts TCP frames, and group 1's match-all rules read
// PrevOld and PrevResult. A UDP frame reaches group 1 with nothing written
// to its bus, so it must read the reset values.
func filteredBusPipeline(t *testing.T) *Pipeline {
	t.Helper()
	all := MemRange{Base: 0, Buckets: 4096}
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	for _, g := range []*Group{g0, g1} {
		if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []struct {
		g  *Group
		ci int
		r  *Rule
	}{
		{g0, 0, &Rule{TaskID: 80, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0), P1: PacketSize(), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd}},
		{g1, 0, &Rule{TaskID: 81, Filter: packet.MatchAll,
			Key: FullKey(0).SubRange(6, 32), P1: PrevOld(), P2: Const(0),
			Prep: Transform{Kind: TransformZeroGate, IfZero: 7, Else: 3}, Mem: all, Op: dataplane.OpXor}},
		{g1, 1, &Rule{TaskID: 82, Filter: packet.MatchAll,
			Key: FullKey(0).SubRange(17, 32), P1: PrevResult(), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd}},
	} {
		if err := in.g.CMU(in.ci).InstallRule(in.r); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g0, g1)
}

// TestProcessFramesFilteredBusWriter: every chunk starts each frame's
// result bus from reset. TestProcessFramesColumnShapes/bus cannot show it,
// since a match-all CMU there writes every frame's bus before any rule
// reads it; here a UDP frame that read the bus its index held in the
// previous chunk would diverge from the packet path.
func TestProcessFramesFilteredBusWriter(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 400, Packets: 3*FrameChunk + 100, Seed: 16})
	s, _ := framesMatchBatch(t, func() *Pipeline { return filteredBusPipeline(t) }, nil, tr.Packets)
	if !s.FrameVectorized() || s.plan.quiet {
		t.Fatalf("vectorised %v, bus-quiet %v; want a vectorised bus-reading plan", s.FrameVectorized(), s.plan.quiet)
	}
}

// manyRules is one CMU holding n counters on one bucket each, rule r over
// destination port r+1.
func manyRules(t *testing.T, n int) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: 512, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if err := g.CMU(0).InstallRule(&Rule{
			TaskID: r + 1, Filter: packet.Filter{DstPort: uint16(r + 1)},
			Key: FullKey(0), P1: Const(1), P2: MaxValue(),
			Mem: MemRange{Base: r, Buckets: 1}, Op: dataplane.OpCondAdd,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g)
}

// TestProcessFramesManyRules: a CMU may hold as many rules as its register
// has buckets. 300 disjoint DstPort filters on one bucket each must route
// every frame to its own rule; a first-match selection stored in a byte
// drops rule 255's frames and credits rule 256 onwards to rule ri−256.
func TestProcessFramesManyRules(t *testing.T) {
	const rules = 300
	build := func() *Pipeline { return manyRules(t, rules) }
	ps := make([]packet.Packet, 10*rules)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i), DstIP: 9, SrcPort: 80, DstPort: uint16(1 + i%rules), Proto: 6, Size: 64}
	}
	framesMatchBatch(t, build, nil, ps)
}

// TestProcessFramesQuietAddPath pins the frequency-sketch fast path: in a
// bus-quiet snapshot the engine routes constant saturating adds through the
// witness-free add (full-width registers) or falls back to the generic
// batch loop (narrow registers, where saturation and clamp accounting are
// live). Both must stay bit-identical to the sequential packet path, clamp
// counters included, under either write policy.
func TestProcessFramesQuietAddPath(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 12_000, Seed: 19})
	mt := writeFrameTrace(t, tr.Packets)

	for _, tc := range []struct {
		name    string
		width   int
		buckets int
	}{
		{"full-width", 32, 4096}, // ApplyAddBatch: one add per update
		{"narrow", 8, 256},       // generic fallback: clamps and saturation live
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Pipeline { return cmsPipeline(t, tc.width, tc.buckets) }
			want := build()
			want.Compile().ProcessBatchCtx(NewProcCtx(), tr.Packets)

			for _, pol := range writePolicies {
				got := build()
				got.SetSingleWriter(pol.single)
				s := got.Compile()
				if add := s.plan.column[0].prog[0].kernel == kernelAddCounts; add != (tc.width == 32) {
					t.Fatalf("add-counts kernel %v for a %d-bit register", add, tc.width)
				}
				s.ProcessFrames(NewProcCtx(), mt, 0, mt.Frames())

				compareAllRegisters(t, want, got)
				rw := want.Group(0).CMU(0).Register()
				rg := got.Group(0).CMU(0).Register()
				if rg.Clamps() != rw.Clamps() {
					t.Fatalf("%s: clamp counters differ: frame engine %d, packet path %d",
						pol.name, rg.Clamps(), rw.Clamps())
				}
			}
		})
	}

	// Narrow sharded lanes: the lane path must reproduce ShardApply's
	// saturation and clamp accounting through the drain.
	t.Run("narrow-sharded", func(t *testing.T) {
		build := func() *Pipeline { return cmsPipeline(t, 8, 256) }
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

// TestReplaySpanIsWholeChunks ties the replay span to the chunk width: a
// replayer must hand the engine spans that are a whole number of chunks.
// Otherwise every span splits into full chunks plus a sliver that groups
// poorly.
func TestReplaySpanIsWholeChunks(t *testing.T) {
	mt := mmtrace.FromPackets(make([]packet.Packet, 64*FrameChunk))
	r, err := mmtrace.NewReplayer(mmtrace.ReplayConfig{Traces: []*mmtrace.Trace{mt}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, lo, hi := r.NextFrames(0)
	span := hi - lo
	if span <= 0 || span >= mt.Frames() {
		t.Fatalf("first replay span is %d of %d frames; the trace must be longer than one span", span, mt.Frames())
	}
	if span%FrameChunk != 0 {
		t.Fatalf("replay span %d is not a whole number of %d-frame chunks", span, FrameChunk)
	}
}

// TestFrameChunkInvariants: the chunk width the engine's masks and the
// grouping hash are written for. Every i&(FrameChunk-1) is the identity on
// a chunk's frame and group numbers only for a power of two; the grouping
// hash keeps its load factor at or below one half with twice the chunk's
// slots; and its entries name a group in a uint16.
func TestFrameChunkInvariants(t *testing.T) {
	if FrameChunk <= 0 || FrameChunk&(FrameChunk-1) != 0 {
		t.Fatalf("FrameChunk %d is not a power of two", FrameChunk)
	}
	if groupSlots != 2*FrameChunk {
		t.Fatalf("groupSlots %d, want 2*FrameChunk = %d", groupSlots, 2*FrameChunk)
	}
	if FrameChunk > 1<<16 {
		t.Fatalf("FrameChunk %d overflows the uint16 grouping entry", FrameChunk)
	}
}
