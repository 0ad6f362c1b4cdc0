package dataplane

import (
	"testing"
	"testing/quick"
)

func TestResourcesAddScaleFits(t *testing.T) {
	a := Resources{HashUnits: 1, SALUs: 2, SRAMBlocks: 3}
	b := Resources{HashUnits: 4, TCAMBlocks: 5}
	sum := a.Add(b)
	if sum.HashUnits != 5 || sum.SALUs != 2 || sum.SRAMBlocks != 3 || sum.TCAMBlocks != 5 {
		t.Fatalf("Add = %+v", sum)
	}
	tripled := a.Scale(3)
	if tripled.HashUnits != 3 || tripled.SALUs != 6 {
		t.Fatalf("Scale = %+v", tripled)
	}
	cap_ := StageCapacity()
	if !a.FitsWithin(cap_) {
		t.Error("small vector must fit one stage")
	}
	huge := Resources{SALUs: SALUsPerStage + 1}
	if huge.FitsWithin(cap_) {
		t.Error("oversized vector must not fit")
	}
}

func TestPipelineCapacity(t *testing.T) {
	c := PipelineCapacity(NumStages)
	if c.HashUnits != NumStages*HashUnitsPerStage {
		t.Errorf("pipeline hash units = %d", c.HashUnits)
	}
	if c.SALUs != NumStages*SALUsPerStage {
		t.Errorf("pipeline SALUs = %d", c.SALUs)
	}
	if c.PHVBits != PHVBits {
		t.Error("PHV is pipeline-wide, not per-stage")
	}
}

func TestUtilization(t *testing.T) {
	used := Resources{HashUnits: 3, SALUs: 1}
	u := UtilizationOf(used, StageCapacity())
	if u.HashUnits != 0.5 {
		t.Errorf("hash util = %v, want 0.5", u.HashUnits)
	}
	if u.SALUs != 0.25 {
		t.Errorf("SALU util = %v, want 0.25", u.SALUs)
	}
	if u.Max() != 0.5 {
		t.Errorf("max util = %v", u.Max())
	}
	if u.Mean() <= 0 || u.Mean() >= 0.5 {
		t.Errorf("mean util = %v out of expected range", u.Mean())
	}
	// Zero capacity → zero utilization, not NaN.
	z := UtilizationOf(used, Resources{})
	if z.HashUnits != 0 {
		t.Error("zero-capacity utilization must be 0")
	}
}

func TestSRAMBlocksFor(t *testing.T) {
	// 65536 × 32-bit = 256 KB = 16 blocks of 16 KB.
	if got := SRAMBlocksFor(65536, 32); got != 16 {
		t.Errorf("blocks = %d, want 16", got)
	}
	// 65536 × 1-bit = 8 KB → still 1 block minimum.
	if got := SRAMBlocksFor(65536, 1); got != 1 {
		t.Errorf("1-bit blocks = %d, want 1", got)
	}
	if got := SRAMBlocksFor(1, 8); got != 1 {
		t.Errorf("tiny register blocks = %d, want 1", got)
	}
}

func TestTCAMBlocksFor(t *testing.T) {
	if TCAMBlocksFor(0) != 0 {
		t.Error("no entries → no blocks")
	}
	if TCAMBlocksFor(1) != 1 || TCAMBlocksFor(512) != 1 || TCAMBlocksFor(513) != 2 {
		t.Error("TCAM block rounding wrong")
	}
}

// --- Register semantics (Appendix A) ---

func TestCondAddSemantics(t *testing.T) {
	r := NewRegister(16, 32)
	// bucket < p2: add and return the updated value.
	if got := r.Execute(OpCondAdd, 3, 5, 100); got != 5 {
		t.Fatalf("first Cond-ADD = %d, want 5", got)
	}
	if got := r.Execute(OpCondAdd, 3, 5, 100); got != 10 {
		t.Fatalf("second Cond-ADD = %d, want 10", got)
	}
	// bucket ≥ p2: no update, return 0.
	if got := r.Execute(OpCondAdd, 3, 5, 10); got != 0 {
		t.Fatalf("guarded Cond-ADD = %d, want 0", got)
	}
	if r.Read(3) != 10 {
		t.Fatalf("guard must prevent the write, bucket = %d", r.Read(3))
	}
	// p2 = max turns it into an unconditional ADD.
	r.Execute(OpCondAdd, 4, 7, ^uint32(0))
	r.Execute(OpCondAdd, 4, 7, ^uint32(0))
	if r.Read(4) != 14 {
		t.Fatalf("unconditional ADD sum = %d", r.Read(4))
	}
}

func TestCondAddSaturatesAtWidth(t *testing.T) {
	r := NewRegister(4, 16)
	r.Execute(OpCondAdd, 0, 0xFFFF, ^uint32(0))
	if got := r.Execute(OpCondAdd, 0, 10, ^uint32(0)); got != 0 {
		// Bucket is at the 16-bit max: the guard p2 (clamped to width)
		// cannot exceed it, so the op returns 0.
		t.Fatalf("saturated Cond-ADD = %d, want 0", got)
	}
	if r.Read(0) != 0xFFFF {
		t.Fatalf("16-bit bucket overflowed: %#x", r.Read(0))
	}
}

func TestMaxSemantics(t *testing.T) {
	r := NewRegister(8, 32)
	if got := r.Execute(OpMax, 1, 50, 0); got != 50 {
		t.Fatalf("first MAX = %d, want 50", got)
	}
	// Smaller value: no update, return 0.
	if got := r.Execute(OpMax, 1, 20, 0); got != 0 {
		t.Fatalf("non-updating MAX = %d, want 0", got)
	}
	if r.Read(1) != 50 {
		t.Fatal("MAX must not decrease the bucket")
	}
	if got := r.Execute(OpMax, 1, 60, 0); got != 60 {
		t.Fatalf("updating MAX = %d, want 60", got)
	}
}

func TestAndOrSemantics(t *testing.T) {
	r := NewRegister(8, 32)
	// p2 ≠ 0 selects OR.
	if got := r.Execute(OpAndOr, 2, 0b0101, 1); got != 0b0101 {
		t.Fatalf("OR result = %b", got)
	}
	if got := r.Execute(OpAndOr, 2, 0b0010, 1); got != 0b0111 {
		t.Fatalf("second OR result = %b", got)
	}
	// p2 == 0 selects AND.
	if got := r.Execute(OpAndOr, 2, 0b0011, 0); got != 0b0011 {
		t.Fatalf("AND result = %b", got)
	}
	if r.Read(2) != 0b0011 {
		t.Fatal("AND must mask the bucket")
	}
}

func TestOpNone(t *testing.T) {
	r := NewRegister(4, 32)
	if r.Execute(OpNone, 0, 9, 9) != 0 {
		t.Error("OpNone must return 0")
	}
	if r.Read(0) != 0 {
		t.Error("OpNone must not write")
	}
}

func TestRegisterWidthMasking(t *testing.T) {
	r := NewRegister(4, 8)
	r.Execute(OpMax, 0, 0xABCD, 0)
	if r.Read(0) != 0xCD {
		t.Fatalf("8-bit register stored %#x, want value masked to width", r.Read(0))
	}
}

func TestRegisterIndexWrap(t *testing.T) {
	r := NewRegister(16, 32)
	r.Execute(OpCondAdd, 16+3, 1, ^uint32(0)) // wraps to 3
	if r.Read(3) != 1 {
		t.Fatal("index must wrap into the bucket range")
	}
}

// TestRegisterGeometry checks the geometry an unbacked register reports:
// NewRegister allocates no buckets (see backing_test.go).
func TestRegisterGeometry(t *testing.T) {
	r := NewRegister(1000, 16) // rounds up to 1024
	if backedArray(r) != nil {
		t.Fatal("NewRegister backed the register")
	}
	if r.Size() != 1024 {
		t.Fatalf("size = %d, want 1024", r.Size())
	}
	if r.BitWidth() != 16 {
		t.Fatalf("width = %d", r.BitWidth())
	}
	if r.MemoryBytes() != 1024*2 {
		t.Fatalf("memory = %d", r.MemoryBytes())
	}
	if r.SRAMBlocks() != 1 {
		t.Fatalf("SRAM blocks = %d", r.SRAMBlocks())
	}
}

func TestRegisterInvalidWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 33 must panic")
		}
	}()
	NewRegister(8, 33)
}

func TestRegisterRangeOps(t *testing.T) {
	r := NewRegister(16, 32)
	for i := uint32(0); i < 16; i++ {
		r.Execute(OpCondAdd, i, i+1, ^uint32(0))
	}
	got := r.ReadRange(4, 4)
	for i, v := range got {
		if v != uint32(4+i+1) {
			t.Fatalf("ReadRange[%d] = %d", i, v)
		}
	}
	r.ClearRange(4, 4)
	for i := 4; i < 8; i++ {
		if r.Read(uint32(i)) != 0 {
			t.Fatal("ClearRange left residue")
		}
	}
	if r.Read(3) == 0 || r.Read(8) == 0 {
		t.Fatal("ClearRange touched neighbours")
	}
	r.Reset()
	for i := uint32(0); i < 16; i++ {
		if r.Read(i) != 0 {
			t.Fatal("Reset left residue")
		}
	}
}

func TestRegisterAccessCount(t *testing.T) {
	r := NewRegister(4, 32)
	r.Execute(OpCondAdd, 0, 1, 1)
	r.Execute(OpMax, 1, 1, 0)
	if r.Accesses() != 2 {
		t.Fatalf("accesses = %d", r.Accesses())
	}
	r.Read(0) // control-plane read is free
	if r.Accesses() != 2 {
		t.Fatal("Read must not count as a data-plane access")
	}
}

func TestCondAddMonotoneProperty(t *testing.T) {
	// Cond-ADD never decreases a bucket.
	f := func(ops []struct{ P1, P2 uint32 }) bool {
		r := NewRegister(1, 32)
		prev := uint32(0)
		for _, op := range ops {
			r.Execute(OpCondAdd, 0, op.P1, op.P2)
			cur := r.Read(0)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxIsUpperBoundProperty(t *testing.T) {
	// After MAX updates, the bucket equals the max of all inputs (masked).
	f := func(vals []uint16) bool {
		r := NewRegister(1, 16)
		var want uint32
		for _, v := range vals {
			r.Execute(OpMax, 0, uint32(v), 0)
			if uint32(v) > want {
				want = uint32(v)
			}
		}
		return r.Read(0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Footprint models ---

func TestStaticFootprintShape(t *testing.T) {
	cms := StaticFootprint(KindCMS, 3, 65536, 64)
	if cms.SALUs != 3 {
		t.Errorf("CMS d=3 SALUs = %d", cms.SALUs)
	}
	if cms.HashUnits != 6 {
		t.Errorf("CMS d=3 hash units = %d (index + addressing tax)", cms.HashUnits)
	}
	bf := StaticFootprint(KindBloomFilter, 3, 65536, 64)
	if bf.SRAMBlocks >= cms.SRAMBlocks {
		t.Error("1-bit Bloom buckets must use less SRAM than 32-bit CMS")
	}
	mrac := StaticFootprint(KindMRAC, 3, 65536, 64)
	if mrac.SALUs != 1 {
		t.Error("MRAC is a single array regardless of requested d")
	}
	hll := StaticFootprint(KindHLL, 1, 4096, 64)
	if hll.SALUs != 1 {
		t.Error("HLL uses one SALU")
	}
}

func TestBaselineSwitchProfileFits(t *testing.T) {
	base := BaselineSwitchProfile()
	cap_ := PipelineCapacity(NumStages)
	if !base.FitsWithin(cap_) {
		t.Fatal("baseline must fit the pipeline")
	}
	u := UtilizationOf(base, cap_)
	if u.Max() > 0.6 || u.Mean() < 0.1 {
		t.Fatalf("baseline utilization implausible: %v", u)
	}
}

func TestTranslationCostModels(t *testing.T) {
	if TranslationTCAMEntries(1) != 0 {
		t.Error("one partition needs no translation entries")
	}
	if TranslationTCAMEntries(4) != 4*3+1 {
		t.Errorf("4 partitions = %d entries", TranslationTCAMEntries(4))
	}
	// Monotone in partitions.
	prev := 0.0
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		u := TranslationTCAMUsage(p, 1)
		if u <= prev {
			t.Fatalf("TCAM usage not increasing at %d partitions", p)
		}
		prev = u
	}
	// 32 partitions on one CMU ≈ the paper's ~12.5%-of-one-stage claim.
	if u := TranslationTCAMUsage(32, 1); u < 0.05 || u > 0.15 {
		t.Fatalf("32-partition TCAM usage = %.3f, want ~0.08–0.13", u)
	}
	// Shift-based PHV bits grow with log2(partitions).
	if TranslationPHVBits(8) != 4*32 || TranslationPHVBits(64) != 7*32 {
		t.Fatalf("PHV bits: 8→%d, 64→%d", TranslationPHVBits(8), TranslationPHVBits(64))
	}
	if TranslationPHVBits(0) != 0 {
		t.Error("zero partitions cost no PHV")
	}
}

func TestStatefulOpStrings(t *testing.T) {
	names := map[StatefulOp]string{
		OpNone: "None", OpCondAdd: "Cond-ADD", OpMax: "MAX", OpAndOr: "AND-OR",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("op %d string = %q", op, op.String())
		}
	}
	if len(ReducedOperationSet) != 3 {
		t.Error("the reduced operation set has exactly three ops, leaving one SALU slot free (§6)")
	}
}
