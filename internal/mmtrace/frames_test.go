package mmtrace

import (
	"math/rand"
	"sync"
	"testing"

	"flymon/internal/packet"
	"flymon/internal/trace"
)

// TestExtractMaskedMatchesPacketPath: the FrameView key extractor must
// produce exactly the canonical key the decode-then-extract path does, for
// random records and random per-field masks — including a dirty scratch key
// (the frame engine reuses its key buffers across chunks).
func TestExtractMaskedMatchesPacketPath(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 2000; iter++ {
		p := packet.Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), Size: rng.Uint32(),
			TimestampNs:  rng.Uint64() % (1 << 52),
			QueueLength:  rng.Uint32(),
			QueueDelayNs: rng.Uint32(),
		}
		var rec [trace.RecordSize]byte
		trace.EncodeRecord(rec[:], &p)

		var mask [packet.NumFields]uint32
		for f := range mask {
			switch rng.Intn(3) {
			case 0:
				mask[f] = 0
			case 1:
				mask[f] = ^uint32(0)
			default:
				mask[f] = rng.Uint32()
			}
		}

		var decoded packet.Packet
		FrameView(rec[:]).Decode(&decoded)
		want := packet.ExtractMasked(&decoded, mask)

		var got packet.CanonicalKey
		for i := range got {
			got[i] = 0xAA // dirty scratch: ExtractMasked must fully overwrite
		}
		FrameView(rec[:]).ExtractMasked(&mask, &got)
		if got != want {
			t.Fatalf("iter %d: frame extract %x, packet extract %x (mask %v)", iter, got, want, mask)
		}
	}
}

// TestKeyWordsMatchFields: KeyWords is the five-tuple accessors packed
// into two words, whatever the record holds elsewhere — every byte of a
// record is random here, the pad (bytes 13–15) included, which surfaces as
// the second word's top 24 bits.
func TestKeyWordsMatchFields(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var rec [trace.RecordSize]byte
	for iter := 0; iter < 2000; iter++ {
		rng.Read(rec[:])
		v := FrameView(rec[:])
		var w [2]uint64
		w[0], w[1] = v.KeyWords()
		want := [2]uint64{
			uint64(v.SrcIP()) | uint64(v.DstIP())<<32,
			uint64(v.SrcPort()) | uint64(v.DstPort())<<16 | uint64(v.Proto())<<32 |
				uint64(rec[13])<<40 | uint64(rec[14])<<48 | uint64(rec[15])<<56,
		}
		if w != want {
			t.Fatalf("record %x: KeyWords %#x, fields pack to %#x", rec, w, want)
		}
	}
}

// TestNextFramesDeliversExactlyOnce: concurrent workers pulling via
// NextFrames must cover every frame of every trace exactly once, and the
// replayer's packet counter must agree.
func TestNextFramesDeliversExactlyOnce(t *testing.T) {
	psA := genPackets(10_000)
	psB := genPackets(3_000)
	pathA, _ := writeTraceFile(t, psA)
	pathB, _ := writeTraceFile(t, psB)
	trA, err := Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := Open(pathB)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()

	const workers = 4
	rep, err := NewReplayer(ReplayConfig{
		Traces: []*Trace{trA, trB}, Workers: workers, Batch: 256, Passes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*Trace][]int32{trA: make([]int32, trA.Frames()), trB: make([]int32, trB.Frames())}
	var mu sync.Mutex
	var wg sync.WaitGroup
	rep.Start()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				tr, lo, hi := rep.NextFrames(w)
				if tr == nil {
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[tr][i]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for tr, counts := range seen {
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("trace %p frame %d delivered %d times, want exactly once", tr, i, c)
			}
		}
		total += tr.Frames()
	}
	if got := rep.Stats().Packets; got != uint64(total) {
		t.Fatalf("replayer counted %d packets, want %d", got, total)
	}
}
