package analysis

import (
	"math"
	"math/rand"
	"testing"
)

func TestMRACDistributionUniformSingletons(t *testing.T) {
	// 1000 flows of size 1 spread over 4096 counters: EM must attribute
	// nearly all mass to size 1.
	rng := rand.New(rand.NewSource(2))
	counters := make([]uint32, 4096)
	for i := 0; i < 1000; i++ {
		counters[rng.Intn(len(counters))]++
	}
	dist := MRACDistribution(counters, 64, 8)
	var total, ones float64
	for s, n := range dist {
		total += n
		if s == 1 {
			ones += n
		}
	}
	if total < 900 || total > 1100 {
		t.Fatalf("total flows estimated %.0f, want ≈ 1000", total)
	}
	if ones/total < 0.9 {
		t.Fatalf("size-1 mass = %.2f, want ≥ 0.9", ones/total)
	}
}

func TestMRACDistributionTwoPointMixture(t *testing.T) {
	// Half the flows have size 1, half size 10: EM must keep the two
	// modes separated.
	rng := rand.New(rand.NewSource(3))
	counters := make([]uint32, 8192)
	for i := 0; i < 500; i++ {
		counters[rng.Intn(len(counters))]++
		counters[rng.Intn(len(counters))] += 10
	}
	dist := MRACDistribution(counters, 64, 10)
	if dist[1] < 300 {
		t.Fatalf("size-1 flows = %.0f, want ≥ 300", dist[1])
	}
	if dist[10] < 300 {
		t.Fatalf("size-10 flows = %.0f, want ≥ 300", dist[10])
	}
	// Collision artifact sizes (11 = 1+10) must stay a small minority.
	if dist[11] > 100 {
		t.Fatalf("collision size 11 over-attributed: %.0f", dist[11])
	}
}

func TestMRACDistributionHeavyTail(t *testing.T) {
	// Counters above maxSize are treated as isolated heavy flows.
	counters := []uint32{5000, 2, 1, 0, 0, 0, 0, 0}
	dist := MRACDistribution(counters, 100, 4)
	if dist[5000] != 1 {
		t.Fatalf("heavy counter must surface as one flow of its size, got %v", dist[5000])
	}
}

func TestMRACDistributionEmpty(t *testing.T) {
	if dist := MRACDistribution(nil, 10, 3); dist != nil {
		t.Fatal("nil counters → nil distribution")
	}
	dist := MRACDistribution(make([]uint32, 64), 10, 3)
	if len(dist) != 0 {
		t.Fatal("all-zero counters → empty distribution")
	}
}

func TestMRACDistributionMassConservation(t *testing.T) {
	// The estimated total packet mass should be near the true mass.
	rng := rand.New(rand.NewSource(4))
	counters := make([]uint32, 4096)
	var truePackets float64
	for i := 0; i < 800; i++ {
		size := uint32(rng.Intn(20) + 1)
		counters[rng.Intn(len(counters))] += size
		truePackets += float64(size)
	}
	dist := MRACDistribution(counters, 128, 8)
	var estPackets float64
	for s, n := range dist {
		estPackets += float64(s) * n
	}
	if math.Abs(estPackets-truePackets)/truePackets > 0.1 {
		t.Fatalf("packet mass drifted: est %.0f vs true %.0f", estPackets, truePackets)
	}
}

func TestHeavyChangers(t *testing.T) {
	prev := map[string]uint64{"a": 100, "b": 500, "c": 50}
	cur := map[string]uint64{"a": 105, "b": 100, "d": 900}
	got := HeavyChangers(prev, cur, 300)
	if !got["b"] || !got["d"] {
		t.Fatalf("changers = %v, want b (−400) and d (+900)", got)
	}
	if got["a"] || got["c"] {
		t.Fatalf("small changes flagged: %v", got)
	}
	if len(HeavyChangers[string](nil, nil, 1)) != 0 {
		t.Fatal("empty epochs have no changers")
	}
}
