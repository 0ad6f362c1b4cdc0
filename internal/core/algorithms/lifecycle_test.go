package algorithms

import (
	"testing"

	"flymon/internal/core"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// TestAlgorithmLifecycles drives every installer through the full
// install → process → query → memory accounting → uninstall → reinstall
// cycle, verifying uninstall actually releases the CMUs and clears state.
func TestAlgorithmLifecycles(t *testing.T) {
	keyDstPort := packet.NewKeySpec(packet.FieldDstPort)
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 5000, Seed: 80})

	type handle interface {
		MemoryBytes() int
		Uninstall()
	}
	cases := []struct {
		name    string
		groups  int
		install func(pl *core.Pipeline) (handle, error)
	}{
		{"cms", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallCMS(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), 3, nil)
		}},
		{"mrac", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallMRAC(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, nil)
		}},
		{"bloom", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallBloom(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, 3, true, nil)
		}},
		{"linearcounting", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallLinearCounting(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, nil)
		}},
		{"hll", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallHLL(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
		}},
		{"beaucoup", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallBeauCoup(pl.Group(0), 1, packet.MatchAll, packet.KeyDstIP, packet.KeySrcIP, 100, 3, nil)
		}},
		{"beaucoup-portscan", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallBeauCoup(pl.Group(0), 1, packet.MatchAll, packet.KeyIPPair, keyDstPort, 50, 2, nil)
		}},
		{"sumax-max", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallSuMaxMax(pl.Group(0), 1, packet.MatchAll, packet.KeyIPPair, core.QueueLength(), 3, nil)
		}},
		{"tower", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallTower(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, []int{16, 8, 4}, nil)
		}},
		{"counterbraids", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallCounterBraids(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, 8, 32, nil)
		}},
		{"oddsketch", 1, func(pl *core.Pipeline) (handle, error) {
			return InstallOddSketch(pl.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, core.MemRange{})
		}},
		{"sumax-sum", 3, func(pl *core.Pipeline) (handle, error) {
			return InstallSuMaxSum([]*core.Group{pl.Group(0), pl.Group(1), pl.Group(2)},
				1, packet.MatchAll, packet.KeyFiveTuple, core.Const(1), nil)
		}},
		{"maxinterval", 3, func(pl *core.Pipeline) (handle, error) {
			return InstallMaxInterval([3]*core.Group{pl.Group(0), pl.Group(1), pl.Group(2)},
				1, packet.MatchAll, packet.KeyFiveTuple, nil)
		}},
		{"maxinterval-ensemble", 6, func(pl *core.Pipeline) (handle, error) {
			gs := make([]*core.Group, 6)
			for i := range gs {
				gs[i] = pl.Group(i)
			}
			return InstallMaxIntervalEnsemble(gs, 1, packet.MatchAll, packet.KeyFiveTuple, 2)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := pipeline32(tc.groups, 1<<12)
			h, err := tc.install(pl)
			if err != nil {
				t.Fatalf("install: %v", err)
			}
			if h.MemoryBytes() <= 0 {
				t.Fatal("memory accounting must be positive")
			}
			for i := range tr.Packets {
				pl.Process(&tr.Packets[i])
			}
			if len(pl.Locate(1)) == 0 {
				t.Fatal("installed task must be locatable")
			}
			h.Uninstall()
			if len(pl.Locate(1)) != 0 {
				t.Fatal("uninstall must remove every rule")
			}
			// The freed CMUs accept a fresh install.
			h2, err := tc.install(pl)
			if err != nil {
				t.Fatalf("reinstall: %v", err)
			}
			h2.Uninstall()
		})
	}
}

// TestEnsembleQueryAndMemory covers the ensemble's query helpers.
func TestEnsembleQueryAndMemory(t *testing.T) {
	pl := pipeline32(6, 1<<12)
	gs := make([]*core.Group, 6)
	for i := range gs {
		gs[i] = pl.Group(i)
	}
	ens, err := InstallMaxIntervalEnsemble(gs, 1, packet.MatchAll, packet.KeyFiveTuple, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := packet.Packet{SrcIP: 9, Proto: 6}
	for _, ts := range []uint64{0, 5_000_000, 6_000_000} { // gaps: 5 ms, 1 ms
		p := base
		p.TimestampNs = ts
		pl.Process(&p)
	}
	got := ens.EstimateKey(packet.KeyFiveTuple.Extract(&base))
	if got != 5000 { // µs
		t.Fatalf("ensemble max interval = %d µs, want 5000", got)
	}
	if ens.MemoryBytes() != 2*3*(1<<12)*4 {
		t.Fatalf("ensemble memory = %d", ens.MemoryBytes())
	}
}

// TestBeauCoupEstimateDistinct covers the coupon-inversion estimate.
func TestBeauCoupEstimateDistinct(t *testing.T) {
	pl := pipeline32(1, 1<<14)
	const truth = 2000
	task, err := InstallBeauCoup(pl.Group(0), 1, packet.MatchAll,
		packet.KeyDstIP, packet.KeySrcIP, truth, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := packet.IPv4(1, 1, 1, 1)
	for i := 0; i < truth; i++ {
		pl.Process(&packet.Packet{SrcIP: uint32(i + 1000), DstIP: victim, Proto: 6})
	}
	vk := packet.KeyDstIP.Extract(&packet.Packet{DstIP: victim})
	est := task.distinct(nil, vk)
	if est < truth/4 || est > truth*4 {
		t.Fatalf("coupon estimate %.0f far from truth %d", est, truth)
	}
	// A key never seen estimates zero.
	quiet := packet.KeyDstIP.Extract(&packet.Packet{DstIP: packet.IPv4(9, 9, 9, 9)})
	if task.distinct(nil, quiet) != 0 {
		t.Fatal("unseen key must estimate 0")
	}
}

// TestBloomEffectiveBits covers the packing accounting used by Fig. 14g.
func TestBloomEffectiveBits(t *testing.T) {
	pl := pipeline32(1, 1<<10)
	packed, err := InstallBloom(pl.Group(0), 1, packet.Filter{DstPort: 1}, packet.KeyFiveTuple, 3, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InstallBloom(pl.Group(0), 2, packet.Filter{DstPort: 2}, packet.KeyFiveTuple, 3, false, nil)
	if err == nil {
		// Same CMUs are occupied — expected to fail; use a fresh pipeline.
		plain.Uninstall()
	}
	pl2 := pipeline32(1, 1<<10)
	plain, err = InstallBloom(pl2.Group(0), 1, packet.MatchAll, packet.KeyFiveTuple, 3, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if packed.EffectiveBits() != 32*plain.EffectiveBits() {
		t.Fatalf("packing must multiply usable bits by the bucket width: %d vs %d",
			packed.EffectiveBits(), plain.EffectiveBits())
	}
	if packed.MemoryBytes() != plain.MemoryBytes() {
		t.Fatal("both variants occupy the same register memory")
	}
}
