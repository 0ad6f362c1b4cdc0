package core

import (
	"strings"
	"testing"
	"testing/quick"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

func TestSelectorResolve(t *testing.T) {
	keys := []uint32{0xAABBCCDD, 0x11223344, 0xFFFFFFFF}
	if got := FullKey(0).Resolve(keys); got != 0xAABBCCDD {
		t.Errorf("FullKey(0) = %#x", got)
	}
	if got := XorKey(0, 1).Resolve(keys); got != 0xAABBCCDD^0x11223344 {
		t.Errorf("XorKey = %#x", got)
	}
	if got := FullKey(0).SubRange(0, 8).Resolve(keys); got != 0xDD {
		t.Errorf("low byte = %#x", got)
	}
	if got := FullKey(0).SubRange(8, 8).Resolve(keys); got != 0xCC {
		t.Errorf("second byte = %#x", got)
	}
	// Rotation with full width is a pure rotation.
	if got := FullKey(0).SubRange(4, 32).Resolve(keys); got != 0xDAABBCCD {
		t.Errorf("rotate 4 = %#x", got)
	}
	// Out-of-range unit indices resolve to zero contribution.
	if got := FullKey(7).Resolve(keys); got != 0 {
		t.Errorf("missing unit = %#x", got)
	}
}

func TestSelectorSubRangeBoundProperty(t *testing.T) {
	f := func(key uint32, lo, width uint8) bool {
		w := int(width%31) + 1
		v := Selector{UnitA: 0, UnitB: -1, Lo: int(lo), Width: w}.Resolve([]uint32{key})
		return v < 1<<uint(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateStaysInPartitionProperty(t *testing.T) {
	f := func(addr uint32, baseSel, sizeSel uint8) bool {
		size := 1 << (sizeSel % 12) // 1..2048 buckets
		base := int(baseSel%16) * size
		mem := MemRange{Base: base, Buckets: size}
		for _, m := range []TranslationMethod{ShiftBased, TCAMBased} {
			idx := Translate(addr, mem, m)
			if idx < uint32(base) || idx >= uint32(base+size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslateUniformity(t *testing.T) {
	// Sequential high-entropy addresses must spread across the partition
	// for both methods.
	mem := MemRange{Base: 64, Buckets: 64}
	for _, m := range []TranslationMethod{ShiftBased, TCAMBased} {
		hit := map[uint32]bool{}
		for i := 0; i < 4096; i++ {
			addr := uint32(i) * 2654435761
			hit[Translate(addr, mem, m)] = true
		}
		if len(hit) != 64 {
			t.Errorf("%s translation reached %d/64 buckets", m, len(hit))
		}
	}
}

func TestTranslateMethodsUseDifferentBits(t *testing.T) {
	mem := MemRange{Base: 0, Buckets: 256}
	// Shift uses high bits, TCAM low bits: an address with only high bits
	// set lands differently.
	addr := uint32(0xAB000000)
	if Translate(addr, mem, ShiftBased) != 0xAB {
		t.Errorf("shift-based should keep high bits: %d", Translate(addr, mem, ShiftBased))
	}
	if Translate(addr, mem, TCAMBased) != 0 {
		t.Errorf("TCAM-based should keep low bits: %d", Translate(addr, mem, TCAMBased))
	}
}

func TestMemRangeOverlap(t *testing.T) {
	a := MemRange{Base: 0, Buckets: 1024}
	b := MemRange{Base: 1024, Buckets: 1024}
	c := MemRange{Base: 512, Buckets: 1024}
	if a.Overlaps(b) {
		t.Error("adjacent ranges must not overlap")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("straddling ranges must overlap, symmetrically")
	}
	if a.String() != "[0,1024)" {
		t.Errorf("range string = %q", a.String())
	}
}

func TestShiftTranslationStages(t *testing.T) {
	if ShiftTranslationStages(false) != 2 || ShiftTranslationStages(true) != 1 {
		t.Error("shift translation costs 2 stages, or 1 with precomputed offsets")
	}
}

func TestTCAMTranslationEntries(t *testing.T) {
	if TCAMTranslationEntries(1) != 0 || TCAMTranslationEntries(4) != 3 {
		t.Error("per-task entries: partitions − 1")
	}
	if PartitionsOf(65536, 2048) != 32 || PartitionsOf(65536, 0) != 0 {
		t.Error("PartitionsOf wrong")
	}
}

// --- CMU rule validation ---

func testRule(taskID int, mem MemRange) *Rule {
	return &Rule{
		TaskID: taskID,
		Filter: packet.MatchAll,
		Key:    FullKey(0),
		P1:     Const(1),
		P2:     MaxValue(),
		Mem:    mem,
		Op:     dataplane.OpCondAdd,
	}
}

func TestCMURejectsBadMemRanges(t *testing.T) {
	c := NewCMU(0, 1024, 32)
	cases := []struct {
		name string
		mem  MemRange
	}{
		{"beyond register", MemRange{Base: 512, Buckets: 1024}},
		{"non power of two", MemRange{Base: 0, Buckets: 300}},
		{"misaligned base", MemRange{Base: 256, Buckets: 512}},
		{"zero size", MemRange{Base: 0, Buckets: 0}},
	}
	for _, tc := range cases {
		if err := c.InstallRule(testRule(1, tc.mem)); err == nil {
			t.Errorf("%s: install must fail", tc.name)
		}
	}
}

func TestCMURejectsOverlapsAndIntersections(t *testing.T) {
	c := NewCMU(0, 1024, 32)
	r1 := testRule(1, MemRange{Base: 0, Buckets: 512})
	r1.Filter = packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(10, 0, 0, 0), Bits: 8}}
	if err := c.InstallRule(r1); err != nil {
		t.Fatal(err)
	}
	// Duplicate task id.
	dup := testRule(1, MemRange{Base: 512, Buckets: 512})
	if err := c.InstallRule(dup); err == nil {
		t.Error("duplicate task id must fail")
	}
	// Overlapping memory (aligned, but straddles task 1's partition).
	mem := testRule(2, MemRange{Base: 0, Buckets: 1024})
	mem.Filter = packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(20, 0, 0, 0), Bits: 8}}
	if err := c.InstallRule(mem); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("overlapping memory must fail, got %v", err)
	}
	// Intersecting filters (one access per packet, §3.3).
	isect := testRule(3, MemRange{Base: 512, Buckets: 256})
	isect.Filter = packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(10, 1, 0, 0), Bits: 16}}
	if err := c.InstallRule(isect); err == nil || !strings.Contains(err.Error(), "one access per packet") {
		t.Errorf("intersecting filters must fail, got %v", err)
	}
	// Disjoint filter + disjoint memory is fine.
	ok := testRule(4, MemRange{Base: 512, Buckets: 256})
	ok.Filter = packet.Filter{SrcPrefix: packet.Prefix{Value: packet.IPv4(20, 0, 0, 0), Bits: 8}}
	if err := c.InstallRule(ok); err != nil {
		t.Errorf("disjoint task must install: %v", err)
	}
}

func TestCMUProbabilisticTasksMayShareTraffic(t *testing.T) {
	c := NewCMU(0, 1024, 32)
	r1 := testRule(1, MemRange{Base: 0, Buckets: 512})
	r1.Prob = 0.5
	r2 := testRule(2, MemRange{Base: 512, Buckets: 512})
	r2.Prob = 0.5
	if err := c.InstallRule(r1); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallRule(r2); err != nil {
		t.Fatalf("probabilistic tasks with intersecting filters must co-exist: %v", err)
	}
}

// RemoveRule only unlinks: a snapshot compiled earlier may still execute the
// rule, so clearing is the memory owner's job once the partition is
// quiescent (controlplane's reclaim).
func TestCMURemoveRuleLeavesPartition(t *testing.T) {
	c := NewCMU(0, 1024, 32)
	r := testRule(1, MemRange{Base: 256, Buckets: 256})
	if err := c.InstallRule(r); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Pkt: &packet.Packet{SrcIP: 1}, RunningMin: ^uint32(0)}
	c.Process(ctx, []uint32{0x12345678})
	written := Translate(0x12345678, r.Mem, r.Translation)
	if c.Register().Read(written) == 0 {
		t.Fatal("processing must have written the partition")
	}
	if !c.RemoveRule(1) {
		t.Fatal("remove must succeed")
	}
	if c.Register().Read(written) == 0 {
		t.Fatal("remove must not touch register memory")
	}
	if c.RemoveRule(1) {
		t.Fatal("second remove must report false")
	}
	if len(c.Rules()) != 0 {
		t.Fatal("rules must be empty")
	}
}

func TestCMUFirstMatchWins(t *testing.T) {
	c := NewCMU(0, 1024, 32)
	specific := testRule(1, MemRange{Base: 0, Buckets: 512})
	specific.Filter = packet.Filter{DstPort: 80}
	if err := c.InstallRule(specific); err != nil {
		t.Fatal(err)
	}
	rest := testRule(2, MemRange{Base: 512, Buckets: 512})
	rest.Filter = packet.Filter{DstPort: 443}
	if err := c.InstallRule(rest); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Pkt: &packet.Packet{DstPort: 80}, RunningMin: ^uint32(0)}
	c.Process(ctx, []uint32{42})
	// Only task 1's partition should have been touched.
	data, err := c.ReadTask(1)
	if err != nil {
		t.Fatal(err)
	}
	sum := uint32(0)
	for _, v := range data {
		sum += v
	}
	if sum != 1 {
		t.Fatalf("task 1 partition sum = %d, want 1", sum)
	}
	data2, _ := c.ReadTask(2)
	for _, v := range data2 {
		if v != 0 {
			t.Fatal("task 2 must be untouched")
		}
	}
}

func TestContextCoinStatistics(t *testing.T) {
	ctx := &Context{rng: 12345}
	n, hits := 100_000, 0
	for i := 0; i < n; i++ {
		if ctx.coin(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.24 || frac > 0.26 {
		t.Fatalf("coin(0.25) hit rate %.4f", frac)
	}
	if !ctx.coin(1) || !ctx.coin(0) {
		t.Fatal("edge probabilities must always fire")
	}
}

// --- Group & pipeline ---

func TestGroupUnitManagement(t *testing.T) {
	g := NewGroup(GroupConfig{})
	if g.Units() != CompressionUnits || g.CMUs() != CMUsPerGroup {
		t.Fatalf("default geometry %d units / %d CMUs", g.Units(), g.CMUs())
	}
	if g.FindUnit(packet.KeySrcIP) != -1 {
		t.Fatal("fresh group must have no configured units")
	}
	free := g.FreeUnit()
	if free != 0 {
		t.Fatalf("first free unit = %d", free)
	}
	if err := g.ConfigureUnit(free, packet.KeySrcIP); err != nil {
		t.Fatal(err)
	}
	if g.FindUnit(packet.KeySrcIP) != 0 {
		t.Fatal("configured unit must be findable")
	}
	if g.FreeUnit() != 1 {
		t.Fatal("next free unit must advance")
	}
	if err := g.ConfigureUnit(99, packet.KeyDstIP); err == nil {
		t.Fatal("out-of-range unit must error")
	}
}

func TestGroupCompressedKeysMatchHashKey(t *testing.T) {
	g := NewGroup(GroupConfig{})
	_ = g.ConfigureUnit(0, packet.KeyFiveTuple)
	p := packet.Packet{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	keys := g.CompressedKeys(&p)
	k := packet.KeyFiveTuple.Extract(&p)
	if keys[0] != g.HashKey(0, k) {
		t.Fatal("per-packet compressed key must equal canonical-key digest")
	}
	if keys[1] != 0 || keys[2] != 0 {
		t.Fatal("idle units must produce zero keys")
	}
}

func TestGroupsProduceIndependentKeys(t *testing.T) {
	g0 := NewGroup(GroupConfig{ID: 0})
	g1 := NewGroup(GroupConfig{ID: 1})
	_ = g0.ConfigureUnit(0, packet.KeyFiveTuple)
	_ = g1.ConfigureUnit(0, packet.KeyFiveTuple)
	same := 0
	for i := 0; i < 1000; i++ {
		p := packet.Packet{SrcIP: uint32(i), Proto: 6}
		if g0.CompressedKeys(&p)[0] == g1.CompressedKeys(&p)[0] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("groups 0 and 1 agree on %d/1000 keys; polynomials not offset", same)
	}
}

func TestPipelineTaskLifecycle(t *testing.T) {
	pl := NewPipeline(2)
	g := pl.Group(0)
	_ = g.ConfigureUnit(0, packet.KeyFiveTuple)
	r := testRule(7, MemRange{Base: 0, Buckets: 1024})
	if err := g.CMU(1).InstallRule(r); err != nil {
		t.Fatal(err)
	}
	locs := pl.Locate(7)
	if len(locs) != 1 || locs[0].CMU != 1 || locs[0].Group != g {
		t.Fatalf("Locate = %+v", locs)
	}
	p := packet.Packet{SrcIP: 5, Proto: 6}
	pl.Process(&p)
	if pl.Packets() != 1 {
		t.Fatal("packet counter wrong")
	}
	rows, err := pl.ReadTask(7)
	if err != nil || len(rows) != 1 {
		t.Fatalf("ReadTask: %v", err)
	}
	if n := pl.RemoveTask(7); n != 1 {
		t.Fatalf("RemoveTask removed %d", n)
	}
	if _, err := pl.ReadTask(7); err == nil {
		t.Fatal("reading a removed task must fail")
	}
}

// --- Layout planner ---

func TestPlanCrossStacked(t *testing.T) {
	if l := PlanCrossStacked(12); l.Groups != 9 {
		t.Fatalf("12 stages → %d groups, want 9 (paper headline)", l.Groups)
	}
	if l := PlanCrossStacked(4); l.Groups != 1 {
		t.Fatalf("4 stages → %d groups, want 1", l.Groups)
	}
	if l := PlanCrossStacked(3); l.Groups != 0 {
		t.Fatal("under one group length → no groups")
	}
}

func TestCrossStackedUtilizationMatchesPaper(t *testing.T) {
	u := PlanCrossStacked(12).Utilization()
	if u.HashUnits != 0.75 {
		t.Fatalf("hash utilization = %v, paper reports 75%%", u.HashUnits)
	}
	if u.SALUs != 0.5625 {
		t.Fatalf("SALU utilization = %v, paper reports 56.25%%", u.SALUs)
	}
}

func TestPlanWithRecirculation(t *testing.T) {
	l := PlanWithRecirculation(12)
	if l.Mirrored != 3 {
		t.Fatalf("recirculation splices %d groups, paper's Appendix E gives 3", l.Mirrored)
	}
	if l.Groups+l.Mirrored != 12 {
		t.Fatalf("total groups with recirculation = %d, want 12", l.Groups+l.Mirrored)
	}
}

func TestMaxSelectableKeys(t *testing.T) {
	if MaxSelectableKeys(3) != 6 {
		t.Fatal("3 units → 6 selectable keys (3 direct + 3 XOR pairs)")
	}
	if MaxSelectableKeys(1) != 1 {
		t.Fatal("1 unit → 1 key")
	}
}

func TestMaxCMUsByPHV(t *testing.T) {
	// Compression makes the CMU count independent of key size.
	c32 := MaxCMUsByPHV(32, true)
	c360 := MaxCMUsByPHV(360, true)
	if c32 != c360 {
		t.Fatalf("compressed CMUs vary with key size: %d vs %d", c32, c360)
	}
	// Without compression the count must fall as keys grow.
	u32 := MaxCMUsByPHV(32, false)
	u360 := MaxCMUsByPHV(360, false)
	if u360 >= u32 {
		t.Fatalf("uncompressed CMUs did not shrink: %d vs %d", u32, u360)
	}
	// The paper's headline: ~5× more CMUs at 350+ bits.
	if ratio := float64(c360) / float64(u360); ratio < 3 {
		t.Fatalf("compression advantage at 360 bits = %.1fx, want ≥ 3x", ratio)
	}
	// Never exceed the cross-stacking SALU cap.
	cap_ := PlanCrossStacked(dataplane.NumStages).Groups * CMUsPerGroup
	if c32 > cap_ {
		t.Fatalf("CMU count %d exceeds SALU cap %d", c32, cap_)
	}
}

func TestGroupFootprintHashShare(t *testing.T) {
	// One group's hash usage must be the paper's 8.3% of the pipeline
	// (6 of 72 units).
	g := NewGroup(GroupConfig{})
	fp := g.Footprint()
	if fp.HashUnits != 6 {
		t.Fatalf("group hash units = %d, want 6", fp.HashUnits)
	}
	u := dataplane.UtilizationOf(fp, dataplane.PipelineCapacity(dataplane.NumStages))
	if u.HashUnits < 0.08 || u.HashUnits > 0.09 {
		t.Fatalf("group hash share = %.4f, want ≈ 0.083", u.HashUnits)
	}
}

func TestPipelineRecirculation(t *testing.T) {
	pl := NewPipeline(1)
	spliced := NewGroup(GroupConfig{ID: 100})
	if err := pl.AddSpliced(spliced); err != nil {
		t.Fatal(err)
	}
	_ = spliced.ConfigureUnit(0, packet.KeyFiveTuple)
	// A task on the spliced group measuring only dport-80 traffic.
	r := testRule(9, MemRange{Base: 0, Buckets: DefaultBuckets})
	r.Filter = packet.Filter{DstPort: 80}
	if err := spliced.CMU(0).InstallRule(r); err != nil {
		t.Fatal(err)
	}
	web := packet.Packet{SrcIP: 1, DstPort: 80, Proto: 6}
	other := packet.Packet{SrcIP: 1, DstPort: 443, Proto: 6}
	for i := 0; i < 10; i++ {
		pl.Process(&web)
		pl.Process(&other)
	}
	if pl.Packets() != 20 {
		t.Fatalf("packets = %d", pl.Packets())
	}
	// Only the matching half is mirrored — the Appendix-E bandwidth
	// overhead is per-task, not global.
	if pl.Recirculated() != 10 {
		t.Fatalf("recirculated = %d, want 10", pl.Recirculated())
	}
	// The spliced task counted its traffic.
	rows, err := pl.ReadTask(9)
	if err != nil || len(rows) != 1 {
		t.Fatalf("ReadTask: %v", err)
	}
	var sum uint32
	for _, v := range rows[0] {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("spliced task counted %d, want 10", sum)
	}
	if n := pl.RemoveTask(9); n != 1 {
		t.Fatalf("RemoveTask = %d", n)
	}
}

func TestPipelineSplicedBound(t *testing.T) {
	pl := NewPipeline(1)
	for i := 0; i < StagesPerGroup-1; i++ {
		if err := pl.AddSpliced(NewGroup(GroupConfig{ID: 200 + i})); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.AddSpliced(NewGroup(GroupConfig{ID: 299})); err == nil {
		t.Fatal("fourth spliced group must be rejected (Appendix E bound)")
	}
}

func TestParamSourcesResolve(t *testing.T) {
	p := packet.Packet{SrcIP: 5, Size: 900, TimestampNs: 3_000_000,
		QueueLength: 44, QueueDelayNs: 77}
	ctx := &Context{Pkt: &p, PrevResult: 11, PrevOld: 22}
	keys := []uint32{0xAABBCCDD}
	cases := []struct {
		src  ParamSource
		want uint32
	}{
		{Const(9), 9},
		{MaxValue(), ^uint32(0)},
		{PacketSize(), 900},
		{TimestampUs(), 3000},
		{QueueLength(), 44},
		{QueueDelay(), 77},
		{CompressedKey(FullKey(0).SubRange(0, 8)), 0xDD},
		{PrevResult(), 11},
		{PrevOld(), 22},
	}
	for i, c := range cases {
		if got := c.src.resolve(ctx, keys); got != c.want {
			t.Errorf("case %d: resolve = %d, want %d", i, got, c.want)
		}
	}
}

func TestTransformApply(t *testing.T) {
	ctx := &Context{Pkt: &packet.Packet{}}
	// Coupon: in-range hash draws a one-hot bit; out-of-range drops.
	coupon := Transform{Kind: TransformCoupon, Coupons: 4, ProbLog2: 4}
	p1, p2, drop := coupon.apply(ctx, 0x20000000, 0) // top 4 bits = 2 < 4
	if drop || p1 != 1<<2 || p2 != 1 {
		t.Fatalf("coupon draw = (%#x,%d,%v)", p1, p2, drop)
	}
	if _, _, drop := coupon.apply(ctx, 0xF0000000, 0); !drop {
		t.Fatal("coupon index 15 ≥ 4 must drop")
	}
	// BitSelect: one-hot within the bucket width.
	bs := Transform{Kind: TransformBitSelect, Width: 16}
	p1, _, _ = bs.apply(ctx, 21, 0)
	if p1 != 1<<(21%16) {
		t.Fatalf("bit select = %#x", p1)
	}
	// LZRank: rank of the leftmost 1-bit.
	lz := Transform{Kind: TransformLZRank, Discard: 0}
	if p1, _, _ = lz.apply(ctx, 0x80000000, 0); p1 != 1 {
		t.Fatalf("rank of MSB-set = %d", p1)
	}
	if p1, _, _ = lz.apply(ctx, 0, 0); p1 != 33 {
		t.Fatalf("rank of zero = %d, want 33 (all-zero convention)", p1)
	}
	lz4 := Transform{Kind: TransformLZRank, Discard: 4}
	if p1, _, _ = lz4.apply(ctx, 0x08000000, 0); p1 != 1 {
		t.Fatalf("rank after discard = %d", p1)
	}
	// IntervalSub: new flow → 0; stale older timestamp → drop; else diff.
	ctx.PrevNewFlow = true
	if p1, _, drop = (Transform{Kind: TransformIntervalSub}).apply(ctx, 500, 0); drop || p1 != 0 {
		t.Fatalf("new-flow interval = (%d,%v)", p1, drop)
	}
	ctx.PrevNewFlow = false
	ctx.PrevOld = 400
	if p1, _, drop = (Transform{Kind: TransformIntervalSub}).apply(ctx, 500, 0); drop || p1 != 100 {
		t.Fatalf("interval = (%d,%v)", p1, drop)
	}
	if _, _, drop = (Transform{Kind: TransformIntervalSub}).apply(ctx, 300, 0); !drop {
		t.Fatal("negative interval must drop")
	}
	// ZeroGate.
	zg := Transform{Kind: TransformZeroGate, IfZero: 7, Else: 3}
	if p1, _, _ = zg.apply(ctx, 0, 0); p1 != 7 {
		t.Fatalf("zero gate (0) = %d", p1)
	}
	if p1, _, _ = zg.apply(ctx, 99, 0); p1 != 3 {
		t.Fatalf("zero gate (99) = %d", p1)
	}
	// None passes through.
	if p1, p2, drop = (Transform{}).apply(ctx, 5, 6); p1 != 5 || p2 != 6 || drop {
		t.Fatal("identity transform broken")
	}
}

func TestTransformTCAMEntries(t *testing.T) {
	if (Transform{Kind: TransformCoupon, Coupons: 8}).TCAMEntries() != 9 {
		t.Fatal("coupon table: c+1 entries")
	}
	if (Transform{Kind: TransformZeroGate}).TCAMEntries() != 2 ||
		(Transform{Kind: TransformIntervalSub}).TCAMEntries() != 2 {
		t.Fatal("two-way transforms: 2 entries")
	}
	// Static shared tables cost nothing per task (Table 3's delay model).
	if (Transform{Kind: TransformBitSelect, Width: 32}).TCAMEntries() != 0 ||
		(Transform{Kind: TransformLZRank}).TCAMEntries() != 0 ||
		(Transform{}).TCAMEntries() != 0 {
		t.Fatal("task-independent transforms must cost 0 deployment entries")
	}
}

func TestAccessorSmoke(t *testing.T) {
	g := NewGroup(GroupConfig{ID: 7})
	if g.ID() != 7 {
		t.Fatal("group ID accessor")
	}
	if g.CMU(1).Index() != 1 {
		t.Fatal("CMU index accessor")
	}
	_ = g.ConfigureUnit(0, packet.KeySrcIP)
	if !g.UnitSpec(0).Equal(packet.KeySrcIP) {
		t.Fatal("unit spec accessor")
	}
	pl := NewPipelineWith(g)
	if pl.Groups() != 1 || pl.SplicedGroups() != 0 {
		t.Fatal("pipeline accessors")
	}
	if ShiftBased.String() != "shift" || TCAMBased.String() != "tcam" {
		t.Fatal("translation method names")
	}
}
