package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// Grouping by key (frames.go, stage 1) and the combined updates it feeds
// must be invisible: on every input, span schedule and mask shape, and under
// either register write policy, the frame engine's registers and clamp
// counters equal the sequential ProcessBatchCtx oracle's.

// nineCMS builds ingest_steady's shape: nine groups, each carrying one
// three-row five-tuple CMS. Group i's unit 0 takes polynomial 3i mod 8, so
// the snapshot digests one mask under eight distinct polynomials.
func nineCMS(t *testing.T, buckets int) *Pipeline {
	t.Helper()
	groups := make([]*Group, 9)
	for i := range groups {
		groups[i] = NewGroup(GroupConfig{ID: i, Buckets: buckets, BitWidth: 32})
		buildCMS(t, groups[i], i+1, 3, buckets)
	}
	return NewPipelineWith(groups...)
}

// combines reports whether s's plan applies combined updates, one weighted
// add per group (ruleGroups), to an add-counts rule (combinesBy).
func combines(s *Snapshot) bool { return combinesBy(s, kernelAddCounts) }

// combinesBy reports whether s's plan gives one of the kernels ks to a
// column-stage rule that updates once per flow group, in a grouping
// snapshot: a match-all rule at program position 0 of its CMU, or any rule
// of a CMU that selects by group (plan.selection) — the plan's conditions
// of combining.
func combinesBy(s *Snapshot, ks ...kernel) bool {
	if !s.plan.grouped {
		return false
	}
	for _, sc := range s.plan.column {
		prog := sc.prog
		switch s.plan.selection(&sc) {
		case selectAll:
			prog = prog[:1]
		case selectGroups:
		default:
			continue
		}
		if slices.ContainsFunc(prog, func(r compiledRule) bool { return slices.Contains(ks, r.kernel) }) {
			return true
		}
	}
	return false
}

// compareClamps fails on the first register whose clamp counter differs.
func compareClamps(t *testing.T, want, got *Pipeline) {
	t.Helper()
	for gi := 0; gi < want.Groups(); gi++ {
		for ci := 0; ci < want.Group(gi).CMUs(); ci++ {
			w, g := want.Group(gi).CMU(ci).Register().Clamps(), got.Group(gi).CMU(ci).Register().Clamps()
			if w != g {
				t.Fatalf("group %d CMU %d clamps: frame engine %d, packet path %d", gi, ci, g, w)
			}
		}
	}
}

// compareTelemetry fails unless two telemetry folds agree on every rule's
// hits and every stage count; Operation is initializations minus
// preparation-stage drops, so it compares the drops too.
func compareTelemetry(t *testing.T, want, got telemetry.DataPlane) {
	t.Helper()
	if want.Stages != got.Stages {
		t.Fatalf("stage counts: frame engine %+v, packet path %+v", got.Stages, want.Stages)
	}
	if len(want.Rules) != len(got.Rules) {
		t.Fatalf("frame engine counts %d rules, packet path %d", len(got.Rules), len(want.Rules))
	}
	for i, w := range want.Rules {
		if g := got.Rules[i]; g.RuleKey != w.RuleKey || g.Hits != w.Hits {
			t.Fatalf("rule %+v: frame engine %d hits, packet path %+v %d", g.RuleKey, g.Hits, w.RuleKey, w.Hits)
		}
	}
}

// framesMatchBatch replays ps, per register write policy, through the
// sequential oracle of a fresh shared-bucket pipeline and through the frame
// engine of a fresh pipeline under that policy, after prepare has run on
// each, and compares every register, clamp counter, rule-hit count and
// stage count (preparation drops included), the packet, recirculation and
// packet-order counters, and the contexts' rng streams: the packets after
// the replay, pushed through both contexts, must land alike. The frame
// engine takes the trace in one ProcessFrames call, or, given span widths,
// in spans of those widths in turn. It returns the frame engine's snapshot
// and the oracle's telemetry.
func framesMatchBatch(t *testing.T, build func() *Pipeline, prepare func(*Pipeline), ps []packet.Packet, spans ...int) (*Snapshot, telemetry.DataPlane) {
	t.Helper()
	type side struct {
		pl   *Pipeline
		s    *Snapshot
		pc   *ProcCtx
		tele telemetry.DataPlane
	}
	run := func(single bool, replay func(*Snapshot, *ProcCtx)) side {
		pl := build()
		pl.SetSingleWriter(single)
		if prepare != nil {
			prepare(pl)
		}
		reg := telemetry.NewRegistry()
		pl.SetTelemetry(reg)
		s := pl.Compile()
		pc := NewProcCtx()
		replay(s, pc)
		pc.TeleFlush()
		return side{pl, s, pc, reg.FoldDataPlane(s.TelemetryLive())}
	}
	mt := writeFrameTrace(t, ps)
	if len(spans) == 0 {
		spans = []int{mt.Frames()}
	}
	var s *Snapshot
	var wantTele telemetry.DataPlane
	for _, pol := range writePolicies {
		t.Run(pol.name, func(t *testing.T) {
			want := run(false, func(s *Snapshot, pc *ProcCtx) { s.ProcessBatchCtx(pc, ps) })
			got := run(pol.single, func(s *Snapshot, pc *ProcCtx) {
				for lo, k := 0, 0; lo < mt.Frames(); k++ {
					hi := min(lo+spans[k%len(spans)], mt.Frames())
					s.ProcessFrames(pc, mt, lo, hi)
					lo = hi
				}
			})
			s, wantTele = got.s, want.tele
			compareAllRegisters(t, want.pl, got.pl)
			compareClamps(t, want.pl, got.pl)
			compareTelemetry(t, want.tele, got.tele)
			if w, g := want.pl.Packets(), got.pl.Packets(); w != g {
				t.Fatalf("packets: frame engine %d, packet path %d", g, w)
			}
			if w, g := want.pl.Recirculated(), got.pl.Recirculated(); w != g {
				t.Fatalf("recirculated: frame engine %d, packet path %d", g, w)
			}
			packetOrder := uint64(0)
			if !got.s.FrameVectorized() {
				packetOrder = uint64(len(ps))
			}
			if g := got.pl.PacketOrderFrames(); g != packetOrder {
				t.Fatalf("frames run in packet order: %d, want %d", g, packetOrder)
			}
			if want.pc.Ctx.rng != got.pc.Ctx.rng {
				t.Fatalf("rng stream: frame engine at %#x, packet path at %#x", got.pc.Ctx.rng, want.pc.Ctx.rng)
			}
			for i := range ps[:min(len(ps), 64)] {
				want.s.Process(want.pc, &ps[i])
				got.s.Process(got.pc, &ps[i])
			}
			compareAllRegisters(t, want.pl, got.pl)
		})
	}
	return s, wantTele
}

// TestCombineNineTasksZipf: the nine-task set on Zipf 1.1 traffic, where a
// chunk repeats about four keys in ten.
func TestCombineNineTasksZipf(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 5000, Packets: 40_000, ZipfS: 1.1, Seed: 61})
	s, _ := framesMatchBatch(t, func() *Pipeline { return nineCMS(t, 4096) }, nil, tr.Packets)
	if !combines(s) {
		t.Fatal("the nine-CMS snapshot must combine duplicates")
	}
	if len(s.hashes) != 8 || len(s.blocks) != 1 || s.blocks[0].n != 8 {
		t.Fatalf("nine five-tuple groups: %d digest slots in %d blocks, want 8 slots in one block", len(s.hashes), len(s.blocks))
	}
}

// saturationShape is one group of three match-all five-tuple rows on
// 32-bit registers of the given size: two add the constant p1, one the
// packet size.
func saturationShape(t *testing.T, buckets int, p1 uint32) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: buckets, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeyFiveTuple); err != nil {
		t.Fatal(err)
	}
	for ci, p := range []ParamSource{Const(p1), Const(p1), PacketSize()} {
		if err := g.CMU(ci).InstallRule(&Rule{
			TaskID: 1, Filter: packet.MatchAll,
			Key: FullKey(0).SubRange(8*ci, 32), P1: p, P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: buckets}, Op: dataplane.OpCondAdd,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g)
}

// TestCombineSaturation: one key fills whole chunks, so every chunk is one
// group of FrameChunk frames, against registers pre-filled at and near
// 2^32. A constant increment of 1500 (a full-size packet's bytes) lands a
// run exactly on ^0 or overshoots it depending on the start; 0x0100_0003
// makes count·p1 pass 2^32 from any start, a bucket at 0 included. A
// per-frame PacketSize rule rides along on another CMU.
func TestCombineSaturation(t *testing.T) {
	const buckets = 64
	ps := make([]packet.Packet, 2*FrameChunk+17)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6, Size: 1500, TimestampNs: uint64(i) * 1000}
	}
	for _, p1 := range []uint32{1500, 0x0100_0003} {
		for _, start := range []uint32{
			0, 1, ^uint32(0), ^uint32(0) - 1,
			^uint32(0) - (FrameChunk+44)*p1, // lands exactly on ^0 inside the second chunk
			^uint32(0) - (FrameChunk+44)*p1 - 7,
			^uint32(0) - 2000*p1,
		} {
			build := func() *Pipeline { return saturationShape(t, buckets, p1) }
			prefill := func(pl *Pipeline) {
				for ci := 0; ci < 3; ci++ {
					reg := pl.Group(0).CMU(ci).Register()
					for b := uint32(0); b < buckets; b++ {
						reg.Apply(dataplane.OpMax, b, start, 0)
					}
				}
			}
			s, _ := framesMatchBatch(t, build, prefill, ps)
			if !combines(s) {
				t.Fatal("constant match-all adds must combine")
			}
		}
	}
}

// TestCombineAllDistinct: a trace with no repeated key makes every frame a
// group of its own and must still match.
func TestCombineAllDistinct(t *testing.T) {
	ps := make([]packet.Packet, FrameChunk+FrameChunk/2+5)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i), DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6, Size: 64}
	}
	framesMatchBatch(t, func() *Pipeline { return nineCMS(t, 4096) }, nil, ps)
}

// besideFilteredShape is a match-all five-tuple CMS beside a filtered
// source-address CMS, one of whose CMUs first-match selects between TCP
// and UDP tasks.
func besideFilteredShape(t *testing.T) *Pipeline {
	t.Helper()
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g0, 1, 3, 4096)
	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	if err := g1.ConfigureUnit(0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 2; ci++ {
		if err := g1.CMU(ci).InstallRule(&Rule{
			TaskID: 2, Filter: packet.Filter{Proto: 6},
			Key: FullKey(0).SubRange(8*ci, 32), P1: Const(1), P2: MaxValue(),
			Mem: MemRange{Base: 0, Buckets: 2048}, Op: dataplane.OpCondAdd,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g1.CMU(0).InstallRule(&Rule{
		TaskID: 3, Filter: packet.Filter{Proto: 17},
		Key: FullKey(0), P1: Const(1), P2: MaxValue(),
		Mem: MemRange{Base: 2048, Buckets: 2048}, Op: dataplane.OpCondAdd,
	}); err != nil {
		t.Fatal(err)
	}
	return NewPipelineWith(g0, g1)
}

// TestCombineMatchAllBesideFiltered: match-all CMS rows (combined) share the
// snapshot with a filtered CMS, one of whose CMUs first-match selects
// between two filtered tasks — all of which stay per-frame.
func TestCombineMatchAllBesideFiltered(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 800, Packets: 20_000, ZipfS: 1.1, Seed: 62})
	build := func() *Pipeline { return besideFilteredShape(t) }
	if s, _ := framesMatchBatch(t, build, nil, tr.Packets); !combines(s) {
		t.Fatal("the match-all CMS must combine")
	}
}

// runChunk runs frames [lo, hi) of mt, one chunk at most, through s the way
// ProcessFrames does, on a scratch it keeps, and returns that scratch with
// the chunk's groups in it.
func runChunk(s *Snapshot, pc *ProcCtx, mt *mmtrace.Trace, lo, hi int) *frameScratch {
	fs := new(frameScratch)
	fs.arm(s)
	s.processFrameChunk(pc, fs, mt.Span(lo, hi), hi-lo)
	return fs
}

// TestCombineGroupsByKey: the engine's grouping finds exactly each chunk's
// distinct keys under the union of the snapshot's masks, representatives in
// frame order, counts summing to the chunk, and every frame's group holding
// its key — on the nine-CMS set (one mask) and on the multi-mask churn
// shape, whose union is the five-tuple. The second half of the trace folds
// every flow onto four address pairs, so only ports and protocol tell its
// keys apart.
func TestCombineGroupsByKey(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 5000, Packets: 20 * FrameChunk, ZipfS: 1.1, Seed: 63})
	for i := len(tr.Packets) / 2; i < len(tr.Packets); i++ {
		p := &tr.Packets[i]
		p.SrcIP, p.DstIP = p.SrcIP%2, p.DstIP%2
		p.Proto = []uint8{6, 17}[i%2]
	}
	mt := writeFrameTrace(t, tr.Packets)
	mask := packet.KeyFiveTuple.FieldMask()
	for _, pl := range []*Pipeline{nineCMS(t, 4096), churnShape(t)} {
		s := pl.Compile()
		if !s.plan.grouped {
			t.Fatal("a five-tuple snapshot must group")
		}
		pc := NewProcCtx()
		for lo := 0; lo < mt.Frames(); lo += FrameChunk {
			fs := runChunk(s, pc, mt, lo, lo+FrameChunk)
			group := map[packet.CanonicalKey]int{}
			for i := lo; i < lo+FrameChunk; i++ {
				k := packet.ExtractMasked(&tr.Packets[i], mask)
				if _, ok := group[k]; !ok {
					group[k] = len(group)
				}
				if fs.grp[i-lo] != int32(group[k]) {
					t.Fatalf("chunk at %d, frame %d: group %d, want %d", lo, i-lo, fs.grp[i-lo], group[k])
				}
			}
			if fs.nrep != len(group) {
				t.Fatalf("chunk at %d: %d representatives, want %d distinct keys", lo, fs.nrep, len(group))
			}
			sum := uint32(0)
			for r := 0; r < fs.nrep; r++ {
				sum += fs.cnt[r]
				if r > 0 && fs.rep[r] <= fs.rep[r-1] {
					t.Fatalf("chunk at %d: representatives out of frame order", lo)
				}
				if fs.grp[fs.rep[r]] != int32(r) {
					t.Fatalf("chunk at %d: representative %d is frame %d of group %d", lo, r, fs.rep[r], fs.grp[fs.rep[r]])
				}
			}
			if sum != FrameChunk {
				t.Fatalf("chunk at %d: counts sum to %d, want %d", lo, sum, FrameChunk)
			}
		}
	}
}

// churnShape builds ingest_churn's four long-lived task shapes on three
// masks — five-tuple, source and destination address: a combined
// five-tuple CMS, a BeauCoup-style distinct counter keyed on the
// destination with source-address coupons, a five-tuple Bloom filter and a
// queue-length maximum.
func churnShape(t *testing.T) *Pipeline {
	t.Helper()
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g0, 1, 3, 4096)
	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	for u, k := range []packet.KeySpec{packet.KeyFiveTuple, packet.KeySrcIP, packet.KeyDstIP} {
		if err := g1.ConfigureUnit(u, k); err != nil {
			t.Fatal(err)
		}
	}
	all := MemRange{Base: 0, Buckets: 4096}
	for ci, r := range []*Rule{
		{TaskID: 2, Filter: packet.MatchAll, Key: FullKey(2), P1: CompressedKey(FullKey(1)), P2: Const(1),
			Prep: Transform{Kind: TransformCoupon, Coupons: 8, ProbLog2: 4}, Mem: all, Op: dataplane.OpAndOr},
		{TaskID: 3, Filter: packet.MatchAll, Key: FullKey(0).SubRange(5, 32), P1: CompressedKey(FullKey(0).SubRange(17, 5)),
			P2: Const(1), Prep: Transform{Kind: TransformBitSelect, Width: 32}, Mem: all, Op: dataplane.OpAndOr},
		{TaskID: 4, Filter: packet.MatchAll, Key: FullKey(0).SubRange(11, 32), P1: QueueLength(), P2: Const(0),
			Mem: all, Op: dataplane.OpMax},
	} {
		if err := g1.CMU(ci).InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g0, g1)
}

// TestCombineMultiMask: the churn shape reads three masks; each is
// extracted and digested for the representatives only, and the per-frame
// rules read their digests through the group column.
func TestCombineMultiMask(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 30_000, ZipfS: 1.1, Seed: 65})
	s, _ := framesMatchBatch(t, func() *Pipeline { return churnShape(t) }, nil, tr.Packets)
	if len(s.masks) != 3 || !combines(s) {
		t.Fatalf("churn shape: %d masks, combining %v; want 3 masks and combining", len(s.masks), combines(s))
	}
}

// unreadFieldsShape is one source-address group holding a constant add,
// a packet-size add and a queue-length maximum.
func unreadFieldsShape(t *testing.T) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	if err := g.ConfigureUnit(0, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	all := MemRange{Base: 0, Buckets: 4096}
	for ci, r := range []*Rule{
		{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(0), P1: Const(1), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd},
		{TaskID: 2, Filter: packet.MatchAll, Key: FullKey(0).SubRange(3, 32), P1: PacketSize(), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd},
		{TaskID: 3, Filter: packet.MatchAll, Key: FullKey(0).SubRange(7, 32), P1: QueueLength(), P2: Const(0), Mem: all, Op: dataplane.OpMax},
	} {
		if err := g.CMU(ci).InstallRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g)
}

// TestCombineUnreadFieldsShareGroup: frames that differ only in fields no
// mask reads — size, queue length, timestamp, and under a source-address
// mask the rest of the five-tuple — share a representative, while rules
// reading those fields as parameters still see each frame's own.
func TestCombineUnreadFieldsShareGroup(t *testing.T) {
	ps := make([]packet.Packet, 3*FrameChunk+5)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i % 3), DstIP: uint32(i), SrcPort: uint16(i), DstPort: 443, Proto: 6,
			Size: uint32(64 + i), QueueLength: uint32(i * 7 % 100), TimestampNs: uint64(i) * 1000}
	}
	build := func() *Pipeline { return unreadFieldsShape(t) }
	s, _ := framesMatchBatch(t, build, nil, ps)
	mt := writeFrameTrace(t, ps)
	pc := NewProcCtx()
	for lo := 0; lo < len(ps); lo += FrameChunk {
		hi := min(lo+FrameChunk, len(ps))
		if fs, want := runChunk(s, pc, mt, lo, hi), min(3, hi-lo); fs.nrep != want {
			t.Fatalf("chunk at %d: %d representatives, want %d source addresses", lo, fs.nrep, want)
		}
	}
}

// timestampKeyShape is a five-tuple CMS beside a counter keyed on the
// source address and the timestamp.
func timestampKeyShape(t *testing.T) *Pipeline {
	t.Helper()
	g0 := NewGroup(GroupConfig{ID: 0, Buckets: 4096, BitWidth: 32})
	buildCMS(t, g0, 1, 3, 4096)
	g1 := NewGroup(GroupConfig{ID: 1, Buckets: 4096, BitWidth: 32})
	tsKey := packet.KeySpec{Parts: []packet.KeyPart{{Field: packet.FieldSrcIP}, {Field: packet.FieldTimestamp}}}
	if err := g1.ConfigureUnit(0, tsKey); err != nil {
		t.Fatal(err)
	}
	if err := g1.CMU(0).InstallRule(&Rule{TaskID: 2, Filter: packet.MatchAll, Key: FullKey(0),
		P1: Const(1), P2: MaxValue(), Mem: MemRange{Base: 0, Buckets: 4096}, Op: dataplane.OpCondAdd}); err != nil {
		t.Fatal(err)
	}
	return NewPipelineWith(g0, g1)
}

// TestCombineTimestampKey: a unit keyed on the timestamp puts it in the
// union mask, so Compile turns grouping off and every frame is its own
// group — here beside a combinable five-tuple CMS, on frames that repeat
// both five-tuple and microsecond.
func TestCombineTimestampKey(t *testing.T) {
	ps := make([]packet.Packet, 2*FrameChunk+9)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i % 5), DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6, Size: 64,
			TimestampNs: uint64(i/4) * 1000}
	}
	build := func() *Pipeline { return timestampKeyShape(t) }
	s, _ := framesMatchBatch(t, build, nil, ps)
	if s.plan.grouped {
		t.Fatal("a timestamp-keyed unit must turn grouping off")
	}
}

// TestCombineSpans: spans of 1, w-1, w, w+1 and 3w+5 frames (w the chunk
// width) cut chunks short of, at and across the width; 511, 512, 513 and
// 1541, and 2047, 2048, 2049 and 6149 (the same cuts for 512- and
// 2,048-frame spans) group partial chunks of several sizes; every schedule
// matches the oracle, on the nine-CMS set and on the churn shape.
func TestCombineSpans(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 3000, Packets: 4*FrameChunk + 3, ZipfS: 1.1, Seed: 66})
	for _, span := range []int{1, 511, 512, 513, 1541, 2047, 2048, 2049, 6149,
		FrameChunk - 1, FrameChunk, FrameChunk + 1, 3*FrameChunk + 5} {
		t.Run(fmt.Sprint(span), func(t *testing.T) {
			framesMatchBatch(t, func() *Pipeline { return nineCMS(t, 4096) }, nil, tr.Packets, span)
			framesMatchBatch(t, func() *Pipeline { return churnShape(t) }, nil, tr.Packets, span)
		})
	}
}

// idemBuckets is the register size of every idempotentCases shape.
const idemBuckets = 256

// idemCase is one TestCombineIdempotent shape: rules[i] goes to CMU i of
// width-bit registers pre-filled with prefill, and combined says whether
// the plan combines one of them (combinesBy).
type idemCase struct {
	name     string
	width    int
	rules    []*Rule
	prefill  uint32
	combined bool
}

// idempotentCases are TestCombineIdempotent's shapes.
func idempotentCases() []idemCase {
	all := MemRange{Base: 0, Buckets: idemBuckets}
	maxQ := func(lo int) *Rule {
		return &Rule{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(0).SubRange(lo, 32),
			P1: QueueLength(), P2: Const(0), Mem: all, Op: dataplane.OpMax}
	}
	return []idemCase{
		{name: "bloom", width: 32, combined: true, rules: []*Rule{
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(0).SubRange(5, 32),
				P1: CompressedKey(FullKey(0).SubRange(17, 5)), P2: Const(1),
				Prep: Transform{Kind: TransformBitSelect, Width: 32}, Mem: all, Op: dataplane.OpAndOr},
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(1).SubRange(9, 32),
				P1: Const(1 << 7), P2: Const(1), Mem: all, Op: dataplane.OpAndOr},
		}},
		{name: "beaucoup", width: 32, combined: true, rules: []*Rule{
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(2), P1: CompressedKey(FullKey(1)), P2: Const(1),
				Prep: Transform{Kind: TransformCoupon, Coupons: 8, ProbLog2: 4}, Mem: all, Op: dataplane.OpAndOr},
		}},
		{name: "sumax-max-32", width: 32, combined: true, rules: []*Rule{maxQ(0), maxQ(8), maxQ(16)}},
		{name: "sumax-max-8", width: 8, combined: true, rules: []*Rule{maxQ(0), maxQ(8), maxQ(16)}},
		{name: "and-or-per-frame", width: 32, prefill: ^uint32(0), combined: true, rules: []*Rule{
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(0).SubRange(3, 32),
				P1: PacketSize(), P2: Const(0), Mem: all, Op: dataplane.OpAndOr},
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(1).SubRange(3, 32),
				P1: QueueLength(), P2: Const(1), Mem: all, Op: dataplane.OpAndOr},
		}},
		{name: "filtered", width: 32, combined: true, rules: []*Rule{
			{TaskID: 1, Filter: packet.Filter{Proto: 6}, Key: FullKey(0),
				P1: QueueLength(), P2: Const(0), Mem: all, Op: dataplane.OpMax},
		}},
		{name: "bus-consumer", width: 32, combined: false, rules: []*Rule{
			maxQ(0),
			{TaskID: 1, Filter: packet.MatchAll, Key: FullKey(0).SubRange(8, 32),
				P1: PrevResult(), P2: MaxValue(), Mem: all, Op: dataplane.OpCondAdd},
		}},
	}
}

// idempotentShape is one group over five-tuple, source and destination
// units with rules[i] installed on CMU i of width-bit registers.
func idempotentShape(t *testing.T, width int, rules []*Rule) *Pipeline {
	t.Helper()
	g := NewGroup(GroupConfig{ID: 0, Buckets: idemBuckets, BitWidth: width})
	for u, k := range []packet.KeySpec{packet.KeyFiveTuple, packet.KeySrcIP, packet.KeyDstIP} {
		if err := g.ConfigureUnit(u, k); err != nil {
			t.Fatal(err)
		}
	}
	for ci, r := range rules {
		r := *r
		if err := g.CMU(ci).InstallRule(&r); err != nil {
			t.Fatal(err)
		}
	}
	return NewPipelineWith(g)
}

// TestCombineIdempotent holds one-update-per-group AND-OR and MAX rules to
// the sequential oracle — registers, rule hits and preparation drops — on a
// Zipf trace whose queue lengths run to 1023 and sizes to 1500. Each case
// names the mutation of ruleGroups it catches: Bloom (BitSelect, and a
// constant p1); BeauCoup (Coupon, half the groups dropped: drops must count
// frames, not groups); SuMax(Max) of the queue length on a 32-bit and an
// 8-bit register (the maximum must be taken after the width mask: 300 masks
// to 44, below 200); AND with p2 = 0 and OR over per-frame p1, on
// registers pre-filled with ones; a filtered MAX, which owns only the
// groups its filter selects and combines over those; and MAX beside a rule
// reading its result off the bus, which makes the snapshot bus-busy and
// must turn combining off.
func TestCombineIdempotent(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 12*FrameChunk + 7, ZipfS: 1.1, Seed: 67})
	rng := rand.New(rand.NewSource(67))
	for i := range tr.Packets {
		tr.Packets[i].QueueLength = uint32(rng.Intn(1 << 10))
		tr.Packets[i].Size = uint32(64 + rng.Intn(1437))
	}
	for _, tc := range idempotentCases() {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Pipeline { return idempotentShape(t, tc.width, tc.rules) }
			prefill := func(pl *Pipeline) {
				for ci := range tc.rules {
					reg := pl.Group(0).CMU(ci).Register()
					for b := uint32(0); b < idemBuckets; b++ {
						reg.Apply(dataplane.OpMax, b, tc.prefill, 0)
					}
				}
			}
			s, tele := framesMatchBatch(t, build, prefill, tr.Packets, FrameChunk, 3*FrameChunk/2, 100)
			idem := combinesBy(s, kernelCombined, kernelFoldedP1)
			if idem != tc.combined {
				t.Fatalf("combining engaged %v, want %v", idem, tc.combined)
			}
			if tc.name == "beaucoup" && tele.Stages.Operation == tele.Stages.Initialization {
				t.Fatal("no coupon draw was dropped: the drop weighting went unexercised")
			}
		})
	}
}

// TestProcessFramesCombinedZeroAlloc: the combining scratch is fixed-size;
// a combining snapshot's chunks allocate nothing under either write policy
// (matched by `make bench-allocs`).
func TestProcessFramesCombinedZeroAlloc(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 4_096, ZipfS: 1.1, Seed: 64})
	mt := writeFrameTrace(t, tr.Packets)
	for _, pol := range writePolicies {
		pl := nineCMS(t, 4096)
		pl.SetSingleWriter(pol.single)
		s := pl.Compile()
		if !combines(s) {
			t.Fatal("the nine-CMS snapshot must combine duplicates")
		}
		pc := NewProcCtx()
		s.ProcessFrames(pc, mt, 0, mt.Frames()) // warm scratch
		if n := testing.AllocsPerRun(20, func() {
			s.ProcessFrames(pc, mt, 0, mt.Frames())
		}); n != 0 {
			t.Fatalf("%s: ProcessFrames allocates %.1f times per span, want 0", pol.name, n)
		}
	}
}
