package core

import (
	"testing"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// Duplicate combining (frames.go, stage 3) must be invisible: on every input
// and under either register write policy the frame engine's registers and
// clamp counters equal the sequential ProcessBatchCtx oracle's.

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

// framesMatchBatch replays ps through the sequential oracle of a fresh
// shared-bucket pipeline and through the frame engine of one fresh pipeline
// per write policy, after prepare has run on each, and compares every
// register, clamp counter, rule-hit count and stage count (preparation
// drops included). It returns the frame engine's snapshot and the oracle's
// telemetry.
func framesMatchBatch(t *testing.T, build func() *Pipeline, prepare func(*Pipeline), ps []packet.Packet) (*Snapshot, telemetry.DataPlane) {
	t.Helper()
	run := func(single bool, replay func(*Snapshot)) (*Pipeline, *Snapshot, telemetry.DataPlane) {
		pl := build()
		pl.SetSingleWriter(single)
		if prepare != nil {
			prepare(pl)
		}
		reg := telemetry.NewRegistry()
		pl.SetTelemetry(reg)
		s := pl.Compile()
		replay(s)
		return pl, s, reg.FoldDataPlane(s.TelemetryLive())
	}
	want, _, wantTele := run(false, func(s *Snapshot) { s.ProcessBatchCtx(NewProcCtx(), ps) })
	mt := writeFrameTrace(t, ps)
	var s *Snapshot
	for _, pol := range writePolicies {
		t.Run(pol.name, func(t *testing.T) {
			var got *Pipeline
			var gotTele telemetry.DataPlane
			got, s, gotTele = run(pol.single, func(s *Snapshot) {
				pc := NewProcCtx()
				s.ProcessFrames(pc, mt, 0, mt.Frames())
				pc.TeleFlush()
			})
			compareAllRegisters(t, want, got)
			compareClamps(t, want, got)
			compareTelemetry(t, wantTele, gotTele)
		})
	}
	return s, wantTele
}

// TestCombineNineTasksZipf: the nine-task set on Zipf 1.1 traffic, where a
// chunk repeats about four keys in ten.
func TestCombineNineTasksZipf(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 5000, Packets: 40_000, ZipfS: 1.1, Seed: 61})
	s, _ := framesMatchBatch(t, func() *Pipeline { return nineCMS(t, 4096) }, nil, tr.Packets)
	if !s.combine {
		t.Fatal("the nine-CMS snapshot must combine duplicates")
	}
	if len(s.hashes) != 8 || len(s.blocks) != 1 || s.blocks[0].n != 8 {
		t.Fatalf("nine five-tuple groups: %d digest slots in %d blocks, want 8 slots in one block", len(s.hashes), len(s.blocks))
	}
}

// TestCombineSaturation: one key fills whole chunks, so every chunk is one
// representative with count 256, against registers pre-filled at and near
// 2^32. A constant increment of 1500 (a full-size packet's bytes) lands a
// run exactly on ^0 or overshoots it depending on the start; 0x0100_0003
// makes count·p1 pass 2^32 from any start, a bucket at 0 included. A
// per-frame PacketSize rule rides along on another CMU.
func TestCombineSaturation(t *testing.T) {
	const buckets = 64
	ps := make([]packet.Packet, 4*frameChunk+17)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6, Size: 1500, TimestampNs: uint64(i) * 1000}
	}
	for _, p1 := range []uint32{1500, 0x0100_0003} {
		for _, start := range []uint32{
			0, 1, ^uint32(0), ^uint32(0) - 1,
			^uint32(0) - 300*p1, // lands exactly on ^0 inside the second chunk
			^uint32(0) - 300*p1 - 7,
			^uint32(0) - 2000*p1,
		} {
			build := func() *Pipeline {
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
			prefill := func(pl *Pipeline) {
				for ci := 0; ci < 3; ci++ {
					reg := pl.Group(0).CMU(ci).Register()
					for b := uint32(0); b < buckets; b++ {
						reg.Apply(dataplane.OpMax, b, start, 0)
					}
				}
			}
			s, _ := framesMatchBatch(t, build, prefill, ps)
			if !s.combine {
				t.Fatal("constant match-all adds must combine")
			}
		}
	}
}

// TestCombineAllDistinct: a trace with no repeated key leaves every chunk
// uncombined and must still match.
func TestCombineAllDistinct(t *testing.T) {
	ps := make([]packet.Packet, 3*frameChunk+5)
	for i := range ps {
		ps[i] = packet.Packet{SrcIP: uint32(i), DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6, Size: 64}
	}
	framesMatchBatch(t, func() *Pipeline { return nineCMS(t, 4096) }, nil, ps)
}

// TestCombineMatchAllBesideFiltered: match-all CMS rows (combined) share the
// snapshot with a filtered CMS, one of whose CMUs first-match selects
// between two filtered tasks — all of which stay per-frame.
func TestCombineMatchAllBesideFiltered(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 800, Packets: 20_000, ZipfS: 1.1, Seed: 62})
	build := func() *Pipeline {
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
	if s, _ := framesMatchBatch(t, build, nil, tr.Packets); !s.combine {
		t.Fatal("the match-all CMS must combine")
	}
}

// TestCombineGroupsByDigestVector: the engine's grouping finds exactly the
// chunk's distinct keys (a chunk with none repeated is left uncombined),
// representatives in frame order, counts summing to the chunk.
func TestCombineGroupsByDigestVector(t *testing.T) {
	tr := trace.Generate(trace.Config{Flows: 5000, Packets: 20 * frameChunk, ZipfS: 1.1, Seed: 63})
	mt := writeFrameTrace(t, tr.Packets)
	s := nineCMS(t, 4096).Compile()
	pc := NewProcCtx()
	mask := packet.KeyFiveTuple.FieldMask()
	for lo := 0; lo < mt.Frames(); lo += frameChunk {
		s.ProcessFrames(pc, mt, lo, lo+frameChunk)
		distinct := map[packet.CanonicalKey]bool{}
		for i := lo; i < lo+frameChunk; i++ {
			distinct[packet.ExtractMasked(&tr.Packets[i], mask)] = true
		}
		fs := &pc.frames
		want := len(distinct)
		if want == frameChunk {
			want = 0
		}
		if fs.nrep != want {
			t.Fatalf("chunk at %d: %d representatives, want %d distinct keys", lo, fs.nrep, want)
		}
		sum := uint32(0)
		for r := 0; r < fs.nrep; r++ {
			sum += fs.cnt[r]
			if r > 0 && fs.rep[r] <= fs.rep[r-1] {
				t.Fatalf("chunk at %d: representatives out of frame order", lo)
			}
		}
		if fs.nrep > 0 && sum != frameChunk {
			t.Fatalf("chunk at %d: counts sum to %d, want %d", lo, sum, frameChunk)
		}
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
		if !s.combine {
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
