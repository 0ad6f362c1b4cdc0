package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// fieldPool draws k values of a width-bit field that differ from one base
// in a few random bits, so a random mask equalises some of them and
// separates others.
func fieldPool(rng *rand.Rand, k, width int) []uint32 {
	base := rng.Uint32()
	pool := make([]uint32, k)
	for i := range pool {
		v := base
		for b := rng.Intn(4); b > 0; b-- {
			v ^= 1 << uint(rng.Intn(width))
		}
		pool[i] = v & (1<<uint(width) - 1)
	}
	return pool
}

// TestGroupMatchesFieldPacking: frameScratch.group keys a frame by the
// record's two key words under groupKeyMask's packing, and must group
// exactly as masking each five-tuple field on its own does — the
// representatives in first-occurrence order, the per-frame groups, the
// counts and each group's packed key — whatever the record holds in its pad
// (bytes 13–15) and in every field outside the five-tuple, which are random
// bytes here.
func TestGroupMatchesFieldPacking(t *testing.T) {
	fiveTuple := []packet.Field{packet.FieldSrcIP, packet.FieldDstIP,
		packet.FieldSrcPort, packet.FieldDstPort, packet.FieldProto}
	widths := [packet.NumFields]int{packet.FieldSrcIP: 32, packet.FieldDstIP: 32,
		packet.FieldSrcPort: 16, packet.FieldDstPort: 16, packet.FieldProto: 8}
	cases := []struct {
		name string
		mask func(rng *rand.Rand) uint32 // one field's mask
	}{
		{"five-tuple", func(*rand.Rand) uint32 { return ^uint32(0) }},
		{"prefixes", func(rng *rand.Rand) uint32 { return ^uint32(0) << uint(rng.Intn(33)) }},
		{"random-bits", func(rng *rand.Rand) uint32 { return rng.Uint32() }},
		{"some-fields", func(rng *rand.Rand) uint32 { return uint32(rng.Intn(2)) * ^uint32(0) }},
	}
	recs := make([]byte, FrameChunk*trace.RecordSize)
	fs := new(frameScratch)
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(71 + ci)))
			for iter := 0; iter < 100; iter++ {
				// One to three masks over the five-tuple; their union is
				// what the engine groups by.
				masks := make([][packet.NumFields]uint32, 1+rng.Intn(3))
				var union [packet.NumFields]uint32
				for m := range masks {
					for _, f := range fiveTuple {
						masks[m][f] = c.mask(rng)
						union[f] |= masks[m][f] & (1<<uint(widths[f]) - 1)
					}
				}
				km, ok := groupKeyMask(masks)
				if !ok {
					t.Fatalf("masks %x: a five-tuple union must group", masks)
				}
				var pools [packet.NumFields][]uint32
				for _, f := range fiveTuple {
					pools[f] = fieldPool(rng, 3, widths[f])
				}
				n := 1 + rng.Intn(FrameChunk/2)
				if iter == 0 {
					n = FrameChunk // one full chunk: the hash at its highest load
				}
				rng.Read(recs[:n*trace.RecordSize])
				type fieldKey [packet.NumFields]uint32
				want := map[fieldKey]int32{}
				var wantRep []int32
				var wantCnt []uint32
				wantGrp := make([]int32, n)
				var wantKey [][2]uint64
				for i := 0; i < n; i++ {
					var v, k fieldKey
					for _, f := range fiveTuple {
						v[f] = pools[f][rng.Intn(len(pools[f]))]
						k[f] = v[f] & union[f]
					}
					rec := recs[i*trace.RecordSize:]
					binary.LittleEndian.PutUint32(rec[0:], v[packet.FieldSrcIP])
					binary.LittleEndian.PutUint32(rec[4:], v[packet.FieldDstIP])
					binary.LittleEndian.PutUint16(rec[8:], uint16(v[packet.FieldSrcPort]))
					binary.LittleEndian.PutUint16(rec[10:], uint16(v[packet.FieldDstPort]))
					rec[12] = uint8(v[packet.FieldProto])
					g, seen := want[k]
					if !seen {
						g = int32(len(wantRep))
						want[k] = g
						wantRep = append(wantRep, int32(i))
						wantCnt = append(wantCnt, 0)
						wantKey = append(wantKey, [2]uint64{
							uint64(k[packet.FieldSrcIP]) | uint64(k[packet.FieldDstIP])<<32,
							uint64(k[packet.FieldSrcPort]) | uint64(k[packet.FieldDstPort])<<16 |
								uint64(k[packet.FieldProto])<<32,
						})
					}
					wantCnt[g]++
					wantGrp[i] = g
				}
				reps := fs.group(&km, recs, n)
				if len(reps) != len(wantRep) {
					t.Fatalf("iter %d (masks %x): %d groups, per-field packing has %d", iter, masks, len(reps), len(wantRep))
				}
				for i, g := range fs.grp[:n] {
					if g != wantGrp[i] {
						t.Fatalf("iter %d (masks %x): frame %d in group %d, want %d", iter, masks, i, g, wantGrp[i])
					}
				}
				for g := range reps {
					if reps[g] != wantRep[g] || fs.cnt[g] != wantCnt[g] || fs.key[g] != wantKey[g] {
						t.Fatalf("iter %d (masks %x): group %d is (frame %d, count %d, key %#x), want (%d, %d, %#x)",
							iter, masks, g, reps[g], fs.cnt[g], fs.key[g], wantRep[g], wantCnt[g], wantKey[g])
					}
				}
			}
		})
	}
}

// BenchmarkGroup times stage 1 alone, per frame: frameScratch.group over
// the five-tuple key, chunk by chunk, on ingest_steady's trace shape (the
// steady9 case of controlplane's BenchmarkProcessFrames: 131,072 frames,
// 100k flows, Zipf 1.1, seed 1).
//
//	go test -run '^$' -bench Group -cpu 1 ./internal/core/
func BenchmarkGroup(b *testing.B) {
	ps := trace.Generate(trace.Config{Flows: 100_000, Packets: 131072, ZipfS: 1.1, Seed: 1}).Packets
	tr := mmtrace.FromPackets(ps)
	n := tr.Frames()
	km, _ := groupKeyMask([][packet.NumFields]uint32{packet.KeyFiveTuple.FieldMask()})
	fs := new(frameScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < n; lo += FrameChunk {
			hi := min(lo+FrameChunk, n)
			fs.group(&km, tr.Span(lo, hi), hi-lo)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
}
