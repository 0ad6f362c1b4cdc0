package sketch

import (
	"math"
	"math/bits"
	"testing"

	"flymon/internal/metrics"
)

// toggle inserts compressed keys into a parity bitmap of len(words)·32 bits,
// the way FlyMon-OddSketch's XOR rule does: each key flips one bit.
func toggle(words []uint32, hashes []uint32) {
	m := uint32(len(words) * 32)
	for _, h := range hashes {
		bit := h % m
		words[bit/32] ^= 1 << (bit % 32)
	}
}

func onesCount(words []uint32) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount32(w)
	}
	return n
}

func TestOddSketchParity(t *testing.T) {
	const m = 1024
	key := randomHashes(1, 11)
	words := make([]uint32, m/32)
	toggle(words, key)
	if ones := onesCount(words); ones != 1 {
		t.Fatalf("one insert → %d bits", ones)
	}
	if got := OddSketchDifferenceFromOnes(1, m); math.Abs(got-1) > 0.01 {
		t.Fatalf("one set bit estimates %.3f elements, want ≈ 1", got)
	}
	// Two switches that both saw the key: their merged sketch is empty.
	twice := append([]uint32(nil), words...)
	if err := MergeXorRegisters(twice, words); err != nil {
		t.Fatal(err)
	}
	if ones := onesCount(twice); ones != 0 {
		t.Fatalf("key seen on both sides → %d bits, want 0", ones)
	}
	// Only one switch saw it: the key survives the merge.
	once := make([]uint32, m/32)
	if err := MergeXorRegisters(once, words); err != nil {
		t.Fatal(err)
	}
	if ones := onesCount(once); ones != 1 {
		t.Fatalf("key seen on one side → %d bits, want 1", ones)
	}
	toggle(words, key) // second insert cancels
	if ones := onesCount(words); ones != 0 {
		t.Fatalf("double insert → %d bits, want 0", ones)
	}
}

func TestOddSketchSymmetricDifference(t *testing.T) {
	const m = 1 << 14
	for _, n := range []int{500, 2000, 5000} {
		words := make([]uint32, m/32)
		toggle(words, randomHashes(n, int64(n)))
		got := OddSketchDifferenceFromOnes(onesCount(words), m)
		if re := metrics.RE(float64(n), got); re > 0.15 {
			t.Fatalf("symmetric difference RE %.3f (est %.0f, truth %d)", re, got, n)
		}
	}
}

func TestOddSketchSizeMismatch(t *testing.T) {
	if err := MergeXorRegisters(make([]uint32, 512/32), make([]uint32, 1024/32)); err == nil {
		t.Fatal("odd sketches of different sizes must not merge")
	}
}

func TestOddSketchSaturation(t *testing.T) {
	const m = 64
	if got := OddSketchDifferenceFromOnes(0, m); got != 0 {
		t.Fatalf("an empty sketch estimates %v, want 0", got)
	}
	below := OddSketchDifferenceFromOnes(m/2-1, m)
	for _, ones := range []int{m / 2, m} {
		est := OddSketchDifferenceFromOnes(ones, m)
		if math.IsInf(est, 1) || math.IsNaN(est) || est < below {
			t.Fatalf("saturated estimate at %d ones must degrade gracefully, got %v (below saturation %v)", ones, est, below)
		}
	}
}
