package algorithms

import (
	"testing"

	"flymon/internal/core"
	"flymon/internal/metrics"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

// TestOddSketchSymmetricDifference exercises the §6 extension: two
// FlyMon-OddSketch tasks over disjoint traffic halves on ONE group, whose
// XOR estimates the symmetric difference of the two flow sets.
func TestOddSketchSymmetricDifference(t *testing.T) {
	pl := pipeline32(1, 1<<13)
	g := pl.Group(0)
	west := packet.Filter{SrcPrefix: packet.Prefix{Value: 0, Bits: 1}}
	east := packet.Filter{SrcPrefix: packet.Prefix{Value: 0x80000000, Bits: 1}}

	a, err := InstallOddSketch(g, 1, west, packet.KeyFiveTuple, core.MemRange{}, 0)
	if err != nil {
		t.Fatalf("InstallOddSketch A: %v", err)
	}
	b, err := InstallOddSketch(g, 2, east, packet.KeyFiveTuple, core.MemRange{}, 1)
	if err != nil {
		t.Fatalf("InstallOddSketch B: %v", err)
	}

	// Feed each flow exactly once (set semantics): one packet per flow.
	tr := trace.Generate(trace.Config{Flows: 4000, Packets: 4000, Seed: 40})
	seen := map[packet.CanonicalKey]bool{}
	westSet := map[packet.CanonicalKey]bool{}
	eastSet := map[packet.CanonicalKey]bool{}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		k := packet.KeyFiveTuple.Extract(p)
		if seen[k] {
			continue
		}
		seen[k] = true
		pl.Process(p)
		if west.Matches(p) {
			westSet[k] = true
		} else {
			eastSet[k] = true
		}
	}
	// The halves are disjoint: |AΔB| = |A| + |B|.
	truth := float64(len(westSet) + len(eastSet))
	got, err := a.SymmetricDifference(b)
	if err != nil {
		t.Fatal(err)
	}
	if re := metrics.RE(truth, got); re > 0.15 {
		t.Fatalf("odd-sketch symmetric difference RE %.3f (est %.0f, truth %.0f)", re, got, truth)
	}
}

func TestOddSketchIdenticalSetsCancel(t *testing.T) {
	pl := pipeline32(1, 1<<12)
	g := pl.Group(0)
	// Two sketches over the SAME traffic (disjoint dst-port filters carry
	// the same flows via two passes) must XOR to zero. Simulate by
	// toggling the same keys into both via two disjoint-port packet
	// copies.
	a, err := InstallOddSketch(g, 1, packet.Filter{DstPort: 80}, packet.KeyIPPair, core.MemRange{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InstallOddSketch(g, 2, packet.Filter{DstPort: 443}, packet.KeyIPPair, core.MemRange{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		p := packet.Packet{SrcIP: uint32(i), DstIP: uint32(i * 31), DstPort: 80, Proto: 6}
		pl.Process(&p)
		p.DstPort = 443
		pl.Process(&p)
	}
	diff, err := a.SymmetricDifference(b)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("identical IP-pair sets must cancel, got %.1f", diff)
	}
}

func TestOddSketchComparabilityGuard(t *testing.T) {
	plA := pipeline32(1, 1<<10)
	plB := pipeline32(1, 1<<10)
	a, err := InstallOddSketch(plA.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := InstallOddSketch(plB.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SymmetricDifference(b); err == nil {
		t.Fatal("sketches on different groups must be rejected (different hash polynomials)")
	}
}

// TestPortScanDetection covers Table 1's port-scan task: distinct DstPorts
// per IP pair, composed as FlyMon-BeauCoup.
func TestPortScanDetection(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	const threshold = 200
	keyDstPort := packet.NewKeySpec(packet.FieldDstPort)
	task, err := InstallBeauCoup(pl.Group(0), 1, packet.MatchAll,
		packet.KeyIPPair, keyDstPort, threshold, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Flows: 2000, Packets: 40_000, Seed: 41})
	scanner := packet.IPv4(203, 0, 113, 50)
	target := packet.IPv4(198, 51, 100, 1)
	tr.InjectPortScan(scanner, target, 4*threshold, 42)
	exact := sketch.NewExactDistinct(packet.KeyIPPair, keyDstPort)
	for i := range tr.Packets {
		pl.Process(&tr.Packets[i])
		exact.AddPacket(&tr.Packets[i])
	}
	pairKey := packet.KeyIPPair.Extract(&packet.Packet{SrcIP: scanner, DstIP: target})
	cands := make([]packet.CanonicalKey, 0)
	for k := range exact.Counts() {
		cands = append(cands, k)
	}
	reported := task.Reported(cands)
	if !reported[pairKey] {
		t.Fatalf("scanner probing %d ports not reported (coupons %d/%d)",
			exact.Count(pairKey), task.collected(nil, pairKey), task.Cfg.Collect)
	}
}

// TestCMUOffsetPlacement verifies the trailing first-CMU argument: a d=1
// task on CMU 2 must count correctly and leave CMUs 0-1 untouched.
func TestCMUOffsetPlacement(t *testing.T) {
	pl := pipeline32(1, 1<<12)
	g := pl.Group(0)
	task, err := InstallCMS(g, 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 1, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if task.Base != 2 {
		t.Fatalf("base = %d, want 2", task.Base)
	}
	p := packet.Packet{SrcIP: 7, Proto: 6}
	for i := 0; i < 5; i++ {
		pl.Process(&p)
	}
	if got := task.estimate(nil, packet.KeyFiveTuple.Extract(&p)); got != 5 {
		t.Fatalf("offset task estimate = %d, want 5", got)
	}
	if g.CMU(0).Register().Accesses() != 0 || g.CMU(1).Register().Accesses() != 0 {
		t.Fatal("CMUs 0-1 must be untouched")
	}
	if g.CMU(2).Register().Accesses() == 0 {
		t.Fatal("CMU 2 must have served the accesses")
	}
	// Out-of-range offsets are rejected.
	if _, err := InstallCMS(g, 2, packet.Filter{DstPort: 9}, packet.KeyFiveTuple, core.Const(1), 3, nil, 1); err == nil {
		t.Fatal("d=3 at offset 1 exceeds the group and must fail")
	}
}
