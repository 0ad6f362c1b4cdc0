package hashing

import (
	"math/rand"
	"testing"

	"flymon/internal/packet"
)

// fusedAgainstSumKey checks the kernel over polynomials polys (unit
// indices, in output order) against Hasher.SumKey on keys extracted from ps
// under mask.
func fusedAgainstSumKey(t *testing.T, mask [packet.NumFields]uint32, polys []int, ps []packet.Packet) {
	t.Helper()
	hs := make([]Hasher, len(polys))
	for q, i := range polys {
		hs[q] = NewUnit(i).Hasher()
	}
	f := NewFused(mask, hs)
	keys := make([]packet.CanonicalKey, len(ps))
	for i := range ps {
		keys[i] = packet.ExtractMasked(&ps[i], mask)
	}
	dst := make([][]uint32, len(polys))
	for q := range dst {
		dst[q] = make([]uint32, len(keys))
	}
	f.SumKeys(keys, dst)
	for q, h := range hs {
		for i := range keys {
			if want := h.SumKey(&keys[i]); dst[q][i] != want {
				t.Fatalf("mask %x polys %v: output %d (unit %d) of key %x = %#x, SumKey %#x",
					mask, polys, q, polys[q], keys[i], dst[q][i], want)
			}
		}
	}
}

func randomPackets(rng *rand.Rand, n int) []packet.Packet {
	ps := make([]packet.Packet, n)
	for i := range ps {
		ps[i] = packet.Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), TimestampNs: rng.Uint64() >> 16,
		}
	}
	return ps
}

// randomMask draws a per-field mask: each field absent, full, a prefix or
// arbitrary bits — byte-aligned or not, timestamp included.
func randomMask(rng *rand.Rand) [packet.NumFields]uint32 {
	var m [packet.NumFields]uint32
	for f := range m {
		switch rng.Intn(4) {
		case 0:
		case 1:
			m[f] = ^uint32(0)
		case 2:
			m[f] = ^uint32(0) << uint(rng.Intn(32))
		default:
			m[f] = rng.Uint32()
		}
	}
	return m
}

// TestFusedMatchesSumKey: for every K from 1 to 8, over every polynomial in
// every output position, the fused kernel equals Hasher.SumKey on the
// canonical masks and on random per-field masks.
func TestFusedMatchesSumKey(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ps := randomPackets(rng, 64)
	masks := []struct {
		name string
		mask [packet.NumFields]uint32
	}{
		{"five-tuple", packet.KeyFiveTuple.FieldMask()},
		{"src-ip", packet.KeySrcIP.FieldMask()},
		{"ip-pair", packet.KeyIPPair.FieldMask()},
		{"src-ip/20", packet.KeySpec{Parts: []packet.KeyPart{{Field: packet.FieldSrcIP, PrefixBits: 20}}}.FieldMask()},
		{"timestamp", packet.NewKeySpec(packet.FieldTimestamp).FieldMask()},
		{"all", packet.NewKeySpec(packet.FieldSrcIP, packet.FieldDstIP, packet.FieldSrcPort,
			packet.FieldDstPort, packet.FieldProto, packet.FieldTimestamp).FieldMask()},
	}
	for i := 0; i < 6; i++ {
		masks = append(masks, struct {
			name string
			mask [packet.NumFields]uint32
		}{"random", randomMask(rng)})
	}
	for _, m := range masks {
		t.Run(m.name, func(t *testing.T) {
			for k := 1; k <= MaxFused; k++ {
				for first := 0; first < MaxUnits(); first++ {
					polys := make([]int, k)
					for q := range polys {
						polys[q] = (first + q) % MaxUnits()
					}
					fusedAgainstSumKey(t, m.mask, polys, ps)
				}
			}
		})
	}
}

// TestFusedSharedProcessWide: the same positions and polynomials get the
// same kernel, whatever mask bits within the live bytes produced them.
func TestFusedSharedProcessWide(t *testing.T) {
	hs := []Hasher{NewUnit(0).Hasher(), NewUnit(3).Hasher()}
	a := NewFused(packet.KeySrcIP.FieldMask(), hs)
	b := NewFused([packet.NumFields]uint32{packet.FieldSrcIP: 0x0101_0101}, hs)
	if a != b {
		t.Fatal("equal live positions and polynomials must share one kernel")
	}
	if c := NewFused(packet.KeySrcIP.FieldMask(), hs[:1]); c == a {
		t.Fatal("different polynomials must not share a kernel")
	}
}

// TestFusedZeroAlloc: the kernel reads its tables and writes the caller's
// rows; with a stack-held row list (the frame engine's form) nothing
// escapes.
func TestFusedZeroAlloc(t *testing.T) {
	mask := packet.KeyFiveTuple.FieldMask()
	f := NewFused(mask, []Hasher{NewUnit(1).Hasher(), NewUnit(6).Hasher(), NewUnit(7).Hasher()})
	keys := make([]packet.CanonicalKey, 16)
	out := make([]uint32, 3*len(keys))
	if avg := testing.AllocsPerRun(200, func() {
		keys[0][0]++
		var dst [MaxFused][]uint32
		for q := 0; q < 3; q++ {
			dst[q] = out[q*len(keys) : (q+1)*len(keys)]
		}
		f.SumKeys(keys, dst[:3])
	}); avg != 0 {
		t.Fatalf("Fused.SumKeys allocates %.1f allocs/op, want 0", avg)
	}
}

// FuzzFusedDigest: any mask, any key, any K and polynomial offset. Every
// output row is checked against its own polynomial, so two rows swapped
// fail too.
func FuzzFusedDigest(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint32(0xFFFF), uint32(0xFFFF), uint32(0xFF), uint32(0),
		uint32(0xC0A80001), uint32(0x0A000001), uint16(443), uint16(51234), uint8(6), uint64(123456789), uint8(8), uint8(0))
	f.Add(uint32(0xFFFFF000), uint32(0), uint32(0), uint32(0x00F0), uint32(0), uint32(0xFFFFFFFF),
		uint32(1), uint32(2), uint16(3), uint16(4), uint8(17), uint64(1)<<40, uint8(3), uint8(5))
	// K = 7 and K = 8: the four-word kernel with an odd and an even
	// polynomial count.
	f.Add(uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint32(0xFFFF), uint32(0xFFFF), uint32(0xFF), uint32(0),
		uint32(0x0A0B0C0D), uint32(0xC0A80102), uint16(8080), uint16(53), uint8(17), uint64(987654321), uint8(6), uint8(2))
	f.Add(uint32(0xFFFFFF00), uint32(0xFFFF0000), uint32(0xFF00), uint32(0xFFFF), uint32(0xFF), uint32(0xFFFF),
		uint32(0x01020304), uint32(0x05060708), uint16(1234), uint16(4321), uint8(6), uint64(5)<<33, uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, m0, m1, m2, m3, m4, m5, src, dst uint32, sport, dport uint16, proto uint8, ts uint64, k, first uint8) {
		mask := [packet.NumFields]uint32{m0, m1, m2, m3, m4, m5}
		p := packet.Packet{SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, Proto: proto, TimestampNs: ts}
		polys := make([]int, 1+int(k)%MaxFused)
		for q := range polys {
			polys[q] = (int(first) + q) % MaxUnits()
		}
		fusedAgainstSumKey(t, mask, polys, []packet.Packet{p})
	})
}

// BenchmarkFusedSumKeys: eight polynomials over a chunk of five-tuple keys
// in one pass, per key (compare eight BenchmarkChecksumKey calls).
func BenchmarkFusedSumKeys(b *testing.B) {
	hs := make([]Hasher, MaxFused)
	for q := range hs {
		hs[q] = NewUnit(q).Hasher()
	}
	mask := packet.KeyFiveTuple.FieldMask()
	f := NewFused(mask, hs)
	ps := randomPackets(rand.New(rand.NewSource(52)), 256)
	keys := make([]packet.CanonicalKey, len(ps))
	for i := range ps {
		keys[i] = packet.ExtractMasked(&ps[i], mask)
	}
	dst := make([][]uint32, MaxFused)
	for q := range dst {
		dst[q] = make([]uint32, len(keys))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SumKeys(keys, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
