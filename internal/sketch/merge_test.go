package sketch

import (
	"testing"

	"flymon/internal/metrics"
	"flymon/internal/packet"
)

func TestCMSMergeEqualsUnionStream(t *testing.T) {
	a := NewCMS(packet.KeyFiveTuple, 3, 1<<12)
	b := NewCMS(packet.KeyFiveTuple, 3, 1<<12)
	whole := NewCMS(packet.KeyFiveTuple, 3, 1<<12)
	tr := genTrace(1000, 40_000, 70)
	for i := range tr.Packets {
		if i%2 == 0 {
			a.AddPacket(&tr.Packets[i])
		} else {
			b.AddPacket(&tr.Packets[i])
		}
		whole.AddPacket(&tr.Packets[i])
	}
	for j := range a.rows {
		if err := MergeAddRegisters(a.rows[j], b.rows[j]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		k := packet.KeyFiveTuple.Extract(&tr.Packets[i])
		if a.EstimateKey(k) != whole.EstimateKey(k) {
			t.Fatalf("merged CMS diverges from union-stream CMS for flow %d", i)
		}
	}
}

func TestCMSMergeGeometryMismatch(t *testing.T) {
	a := NewCMS(packet.KeyFiveTuple, 3, 1<<12)
	b := NewCMS(packet.KeyFiveTuple, 3, 1<<11)
	if err := MergeAddRegisters(a.rows[0], b.rows[0]); err == nil {
		t.Fatal("rows of different widths must not merge")
	}
}

func TestBloomUnion(t *testing.T) {
	const m, k = 1 << 14, 3 // bits per bitmap, positions per key
	positions := randomHashes(600*k, 71)
	insert := func(words []uint32, key int) {
		for _, h := range positions[key*k : key*k+k] {
			words[h%m/32] |= 1 << (h % 32)
		}
	}
	contains := func(words []uint32, key int) bool {
		for _, h := range positions[key*k : key*k+k] {
			if words[h%m/32]&(1<<(h%32)) == 0 {
				return false
			}
		}
		return true
	}
	a, b := make([]uint32, m/32), make([]uint32, m/32)
	for key := range 600 {
		if key%2 == 0 {
			insert(a, key)
		} else {
			insert(b, key)
		}
	}
	if err := MergeOrRegisters(a, b); err != nil {
		t.Fatal(err)
	}
	for key := range 600 {
		if !contains(a, key) {
			t.Fatalf("union bitmap lost key %d", key)
		}
	}
	if err := MergeOrRegisters(a, make([]uint32, m/64)); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	const b = 12
	keys := randomHashes(40_000, 72)
	var partA, partB []uint32
	for i, h := range keys {
		// Overlapping halves: idempotence matters for HLL merges.
		if i%3 != 0 {
			partA = append(partA, h)
		}
		if i%3 != 1 {
			partB = append(partB, h)
		}
	}
	a, whole := hllRanks(partA, b), hllRanks(keys, b)
	if err := MergeMaxRegisters(a, hllRanks(partB, b)); err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		if a[i] != whole[i] {
			t.Fatalf("register %d: merged rank %d, union-stream rank %d", i, a[i], whole[i])
		}
	}
	if re := metrics.RE(float64(len(keys)), HLLEstimateFromRanks(a)); re > 4*1.04/64 {
		t.Fatalf("merged HLL estimate RE %.4f exceeds 4σ", re)
	}
	if err := MergeMaxRegisters(a, hllRanks(partB, b-2)); err == nil {
		t.Fatal("precision mismatch must fail")
	}
}

func TestOddSketchMergeIsSymmetricDifference(t *testing.T) {
	const m = 1 << 14
	keys := randomHashes(2000, 73)
	a, b := make([]uint32, m/32), make([]uint32, m/32)
	toggle(a, keys)
	toggle(b, keys[:len(keys)/2])
	if err := MergeXorRegisters(a, b); err != nil {
		t.Fatal(err)
	}
	// Shared elements cancel: the merged bitmap is exactly the sketch of
	// a's exclusive elements.
	onlyA := make([]uint32, m/32)
	toggle(onlyA, keys[len(keys)/2:])
	for i := range a {
		if a[i] != onlyA[i] {
			t.Fatalf("word %d: merged %#x, sketch of the difference %#x", i, a[i], onlyA[i])
		}
	}
	est := OddSketchDifferenceFromOnes(onesCount(a), m)
	if re := metrics.RE(float64(len(keys)/2), est); re > 0.15 {
		t.Fatalf("merged odd sketch estimate %.0f vs truth %d (RE %.3f)", est, len(keys)/2, re)
	}
}

func TestRawRegisterMergeHelpers(t *testing.T) {
	add1 := []uint32{1, ^uint32(0), 3}
	add2 := []uint32{4, 5, 6}
	if err := MergeAddRegisters(add1, add2); err != nil {
		t.Fatal(err)
	}
	if add1[0] != 5 || add1[1] != ^uint32(0) || add1[2] != 9 {
		t.Fatalf("add merge = %v (must saturate)", add1)
	}
	max1 := []uint32{1, 9}
	if err := MergeMaxRegisters(max1, []uint32{5, 2}); err != nil {
		t.Fatal(err)
	}
	if max1[0] != 5 || max1[1] != 9 {
		t.Fatalf("max merge = %v", max1)
	}
	or1 := []uint32{0b0101}
	if err := MergeOrRegisters(or1, []uint32{0b0011}); err != nil {
		t.Fatal(err)
	}
	if or1[0] != 0b0111 {
		t.Fatalf("or merge = %v", or1)
	}
	if MergeAddRegisters([]uint32{1}, []uint32{1, 2}) == nil ||
		MergeMaxRegisters([]uint32{1}, nil) == nil ||
		MergeOrRegisters(nil, []uint32{1}) == nil {
		t.Fatal("length mismatches must fail")
	}
}
