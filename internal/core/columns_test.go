package core

import (
	"math/rand"
	"testing"

	"flymon/internal/mmtrace"
	"flymon/internal/packet"
)

// The frame engine runs each rule's parameters and preparation stage as
// column kernels (frameScratch.paramColumn, frameScratch.prepare); the
// sequential path resolves the same stages one packet at a time
// (compiledParam.resolve, Transform.applyVals). These properties hold the
// kernels to their sequential oracles element by element, on random columns
// with edge values, and guard every ParamKind and TransformKind value: a
// kind added to one side without the other differs here.

// edgeValue draws a parameter or bus value biased towards the edges the
// kernels branch on: 0, ^0, small values, single bits.
func edgeValue(rng *rand.Rand) uint32 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return ^uint32(0)
	case 2:
		return uint32(rng.Intn(16))
	case 3:
		return 1 << rng.Intn(32)
	default:
		return rng.Uint32()
	}
}

// randomSelection fills fs.sel with an increasing random subset of a
// chunk's first n frames, as first-match selection produces, and returns
// it.
func randomSelection(fs *frameScratch, rng *rand.Rand, n int) []int32 {
	m := 0
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			fs.sel[m] = int32(i)
			m++
		}
	}
	return fs.sel[:m]
}

// randomBus fills the result bus of a chunk's first n frames with edge
// values.
func randomBus(fs *frameScratch, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		fs.busRes[i], fs.busOld[i], fs.busMin[i] = edgeValue(rng), edgeValue(rng), edgeValue(rng)
		fs.busNew[i] = rng.Intn(2) == 0
	}
}

// TestPrepareMatchesApplyVals: on random gathered columns, prepare leaves
// exactly the updates applyVals keeps, in frame order, with applyVals'
// parameters and their frame and index columns compacted alongside, and adds
// the drop count to PrepDrops. Each transform sees rounds of whole-chunk
// selections, ≈ 61k random updates in all, whatever the chunk width.
func TestPrepareMatchesApplyVals(t *testing.T) {
	const rounds = 80 * 1024 / FrameChunk
	cases := []Transform{
		{Kind: TransformNone},
		{Kind: TransformCoupon, Coupons: 8, ProbLog2: 0},
		{Kind: TransformCoupon, Coupons: 8, ProbLog2: 2},
		{Kind: TransformCoupon, Coupons: 3, ProbLog2: 2},
		{Kind: TransformCoupon, Coupons: 16, ProbLog2: 32},
		{Kind: TransformBitSelect, Width: 0},
		{Kind: TransformBitSelect, Width: 8},
		{Kind: TransformBitSelect, Width: 32},
		{Kind: TransformBitSelect, Width: 5},
		{Kind: TransformBitSelect, Width: 64},
		{Kind: TransformLZRank, Discard: 0},
		{Kind: TransformLZRank, Discard: 16},
		{Kind: TransformLZRank, Discard: 31},
		{Kind: TransformIntervalSub},
		{Kind: TransformZeroGate, IfZero: 7, Else: 3},
	}
	// The guard: every TransformKind value, named or not.
	for k := 0; k < 256; k++ {
		cases = append(cases, Transform{Kind: TransformKind(k),
			Coupons: 5, ProbLog2: 3, Width: 8, Discard: 16, IfZero: 7, Else: 3})
	}
	type update struct {
		frame       int32
		idx, p1, p2 uint32
	}
	rng := rand.New(rand.NewSource(30))
	var fs frameScratch
	for _, tf := range cases {
		drops := 0
		for round := 0; round < rounds; round++ {
			randomBus(&fs, rng, FrameChunk)
			sel := randomSelection(&fs, rng, FrameChunk)
			m := len(sel)
			copy(fs.upFrame[:], sel)
			var want []update
			for j := 0; j < m; j++ {
				fs.upIdx[j], fs.upP1[j], fs.upP2[j] = rng.Uint32(), edgeValue(rng), edgeValue(rng)
				f := fs.upFrame[j]
				p1, p2, drop := tf.applyVals(fs.upP1[j], fs.upP2[j], fs.busOld[f], fs.busNew[f])
				if !drop {
					want = append(want, update{f, fs.upIdx[j], p1, p2})
				}
			}
			ctx := Context{PrepDrops: 5}
			k := fs.prepare(&tf, m, &ctx)
			if k != len(want) {
				t.Fatalf("%+v: %d of %d updates survive, applyVals keeps %d", tf, k, m, len(want))
			}
			for j, w := range want {
				if got := (update{fs.upFrame[j], fs.upIdx[j], fs.upP1[j], fs.upP2[j]}); got != w {
					t.Fatalf("%+v: survivor %d is %+v, applyVals gives %+v", tf, j, got, w)
				}
			}
			if ctx.PrepDrops != 5+uint64(m-k) {
				t.Fatalf("%+v: PrepDrops %d after %d drops onto 5", tf, ctx.PrepDrops, m-k)
			}
			drops += m - k
		}
		canDrop := tf.Kind == TransformIntervalSub ||
			(tf.Kind == TransformCoupon && tf.ProbLog2 > 0 && tf.Coupons < 1<<tf.ProbLog2)
		if canDrop != (drops > 0) {
			t.Fatalf("%+v: %d drops over the rounds; the inputs must exercise the drop branch exactly when the transform has one", tf, drops)
		}
	}
}

// TestParamColumnMatchesResolve: for every ParamKind value, named or not,
// paramColumn over a random selection equals compiledParam.resolve on each
// frame decoded into a packet, with the digest vector of that frame's random
// digest row (its group) and its bus as the context. Compressed keys run
// with and without an XOR half, rotated and narrowed; the chain's p2 column
// (the running minimum) is ruleFrames' and has no kind. The frames are half a chunk, the digest rows span a whole
// one.
func TestParamColumnMatchesResolve(t *testing.T) {
	const frames = FrameChunk / 2
	rng := rand.New(rand.NewSource(31))
	ps := make([]packet.Packet, frames)
	for i := range ps {
		ps[i] = packet.Packet{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(), Proto: 6,
			Size: edgeValue(rng), TimestampNs: rng.Uint64() >> rng.Intn(64),
			QueueLength: edgeValue(rng), QueueDelayNs: edgeValue(rng),
		}
	}
	recs := mmtrace.FromPackets(ps).Span(0, frames)
	const slots = 3
	var fs frameScratch
	fs.hashes = make([]uint32, slots*FrameChunk)
	for i := range fs.hashes {
		fs.hashes[i] = rng.Uint32()
	}
	unitHash := []int{2, -1, 0, 1}
	sels := []Selector{FullKey(0), XorKey(0, 3).SubRange(7, 20), FullKey(1), XorKey(1, 2).SubRange(31, 1)}
	var dst [FrameChunk]uint32
	var rows [FrameChunk]int32
	var vec [slots]uint32
	for k := 0; k < 256; k++ {
		for _, s := range sels {
			cp := compileParam(ParamSource{Kind: ParamKind(k), Value: rng.Uint32(), Sel: s}, unitHash)
			randomBus(&fs, rng, frames)
			sel := randomSelection(&fs, rng, frames)
			for j := range sel {
				rows[j] = int32(rng.Intn(FrameChunk))
			}
			fs.paramColumn(&cp, recs, sel, rows[:len(sel)], dst[:len(sel)])
			for j, i := range sel {
				for h := range vec {
					vec[h] = fs.hashes[h*FrameChunk+int(rows[j])]
				}
				var p packet.Packet
				frameAt(recs, i).Decode(&p)
				ctx := Context{Pkt: &p, PrevResult: fs.busRes[i], PrevOld: fs.busOld[i]}
				if want := cp.resolve(&ctx, vec[:]); dst[j] != want {
					t.Fatalf("kind %d, selector %+v, frame %d: column %#x, resolve %#x", k, s, i, dst[j], want)
				}
			}
		}
	}
}
