package core

import (
	"math/bits"

	"flymon/internal/hashing"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// This file is the FrameView-native engine: Snapshot.ProcessFrames executes
// a span of mmapped trace records with no packet.Packet materialization,
// restructured from packet-at-a-time to stage-at-a-time over fixed-size
// chunks:
//
//   1. Extract. Each of the snapshot's distinct field masks is extracted
//      for the whole chunk in one tight loop straight from the record bytes
//      (FrameView.ExtractMasked).
//   2. Fused digest. Each mask's digest slots — every polynomial that mask
//      feeds — come from one pass of its fused kernel (hashing.Fused) over
//      the chunk's pre-masked keys. The dedup and block decisions were made
//      at Compile time; the loops carry no per-packet lookups or dispatch.
//   3. Combine. In a bus-quiet snapshot with a rule that can use it, the
//      chunk's frames are grouped by digest vector into (representative,
//      count) pairs (frameScratch.combine).
//   4. Update. For each CMU rule, the chunk's surviving updates are
//      gathered as (index, p1, p2) triples and applied by one
//      dataplane.ApplyBatch/ShardApplyBatch call, which hoists the op
//      dispatch out of the loop and prefetches the target counter lines
//      ahead of the CAS/store loop (plain stores when the register has a
//      single writer). Results scatter back onto per-frame result-bus
//      arrays, preserving the cross-CMU bus semantics
//      (PrevResult/PrevOld/RunningMin/PrevNewFlow) exactly. A match-all
//      constant saturating add on a full-width base register applies one
//      weighted add per representative instead (Register.ApplyAddCounts).
//
// Combining is exact without comparing keys: a rule's bucket index is a
// function of the digests alone, so frames with equal digest vectors hit
// the same bucket in every rule — even distinct keys that collide in all of
// them — and count·p1 applied once leaves the bucket and its clamp count
// where count adds of p1 would. Witness-carrying and filtered rules, narrow
// registers and private lanes stay per-frame.
//
// Equivalence to the sequential path. Within one CMU, rules select disjoint
// frame sets (first-match), every rule's updates are applied in frame
// order (a combined rule's are all the same add, so order is moot), and
// distinct rules of a CMU own disjoint bucket ranges (enforced
// at install time) on a register no other CMU touches — so the per-bucket
// update sequence a register observes is identical to the packet-at-a-time
// order, and with it every result/old witness, clamp event, and telemetry
// count. The chunk reordering only interleaves updates of *different*
// buckets, which no observable depends on.
//
// Two configurations fall off the vectorized path (Snapshot.frameVec,
// decided at Compile): live spliced groups (the mirror decision and the
// recirculated pass are inherently per-packet) and probabilistically gated
// rules (the rng coin stream advances in strict packet order; vectorizing
// would reorder the flips). ProcessFrames then decodes each frame into the
// context's scratch packet and runs the sequential path — bit-identical by
// construction, and the reason a mid-replay reconfiguration into such a
// configuration is safe: the engine switches form at the next batch, never
// changing results.

// frameChunk is the stage-at-a-time chunk width in frames. 256 keeps the
// whole scratch (masked keys, digest matrix, bus, gather and combining
// arrays) L1/L2 resident for a nine-group five-tuple pipeline — one mask,
// eight distinct digests, 8 KB of digest matrix — while giving the batched
// register loops enough depth for prefetch to overlap misses.
const frameChunk = 256

// combineSlots is the size of the combining open hash: twice the chunk, so
// its load factor stays at or below one half.
const combineSlots = 2 * frameChunk

// frameScratch is the chunk engine's per-worker state, embedded in ProcCtx.
// The dynamic slices are sized to the armed snapshot's digest tables; after
// the first chunk of a configuration the engine is allocation-free (the
// ZeroAlloc gate covers it).
type frameScratch struct {
	// snap is the snapshot masked/hashes are sized for.
	snap *Snapshot
	// masked holds each distinct mask's canonical keys, laid out
	// [mask][frame] with stride frameChunk.
	masked []packet.CanonicalKey
	// hashes holds each distinct digest slot, laid out [slot][frame] with
	// stride frameChunk; compiledSel.resolveFlat indexes it directly.
	hashes []uint32

	// Per-frame result bus: the batch counterparts of Context.PrevResult,
	// PrevOld, RunningMin, and PrevNewFlow.
	busRes [frameChunk]uint32
	busOld [frameChunk]uint32
	busMin [frameChunk]uint32
	busNew [frameChunk]bool
	// rule is the per-frame first-match rule selection of the current CMU
	// (multi-rule CMUs only).
	rule [frameChunk]uint8

	// Gather buffers for one rule's grouped register application: the
	// selected frames, then per surviving update its frame, bucket index,
	// parameters, and witnessed (result, old).
	sel     [frameChunk]int32
	upFrame [frameChunk]int32
	upIdx   [frameChunk]uint32
	upP1    [frameChunk]uint32
	upP2    [frameChunk]uint32
	upRes   [frameChunk]uint32
	upOld   [frameChunk]uint32

	// Duplicate combining: rep[0:nrep] are the first frames of the chunk's
	// distinct digest vectors, in frame order, and cnt their
	// multiplicities; nrep 0 means the chunk is not combined. The open hash
	// maps a digest vector to its rep entry; a slot is live only while its
	// stamp equals gen, so starting a chunk costs one increment, not a
	// clear.
	rep   [frameChunk]int32
	cnt   [frameChunk]uint32
	nrep  int
	gen   uint32
	stamp [combineSlots]uint32
	entry [combineSlots]uint16
}

// arm sizes the digest scratch for s. Only a snapshot with more distinct
// masks or digests allocates; republishing a same-shape configuration is
// free.
func (fs *frameScratch) arm(s *Snapshot) {
	if fs.snap == s {
		return
	}
	fs.snap = s
	if need := len(s.masks) * frameChunk; cap(fs.masked) < need {
		fs.masked = make([]packet.CanonicalKey, need)
	}
	fs.masked = fs.masked[:len(s.masks)*frameChunk]
	if need := len(s.hashes) * frameChunk; cap(fs.hashes) < need {
		fs.hashes = make([]uint32, need)
	}
	fs.hashes = fs.hashes[:len(s.hashes)*frameChunk]
}

// FrameVectorized reports whether ProcessFrames runs the stage-at-a-time
// engine for this snapshot (false = the per-frame decode fallback).
func (s *Snapshot) FrameVectorized() bool { return s.frameVec }

// ProcessFrames pushes frames [lo, hi) of t through the compiled pipeline
// with no packet materialization. Results — register contents, result-bus
// interactions, telemetry counts, clamp events — are bit-identical to
// decoding the same frames and calling Process on each in order. Safe for
// concurrent callers with distinct contexts, like Process.
func (s *Snapshot) ProcessFrames(pc *ProcCtx, t *mmtrace.Trace, lo, hi int) {
	if !s.frameVec {
		// Sequential fallback: spliced groups or probabilistic rules need
		// strict packet order. Decode into the context's scratch packet —
		// still no per-frame allocation.
		p := &pc.framePkt
		for i := lo; i < hi; i++ {
			t.At(i).Decode(p)
			s.Process(pc, p)
		}
		return
	}
	for lo < hi {
		n := hi - lo
		if n > frameChunk {
			n = frameChunk
		}
		s.processFrameChunk(pc, t.Span(lo, lo+n), n)
		lo += n
	}
}

// processFrameChunk runs one chunk of n frames (recs holds exactly their
// record bytes) through every stage.
func (s *Snapshot) processFrameChunk(pc *ProcCtx, recs []byte, n int) {
	s.pl.packets.Add(uint64(n))
	if s.teleOn {
		pc.teleTickBatch(s, n)
	}
	fs := &pc.frames
	fs.arm(s)

	// Stage 1: masked canonical keys, one mask at a time over the chunk.
	for m := range s.masks {
		mask := &s.masks[m]
		dst := fs.masked[m*frameChunk : m*frameChunk+n]
		off := 0
		for i := 0; i < n; i++ {
			mmtrace.FrameView(recs[off:off+trace.RecordSize]).ExtractMasked(mask, &dst[i])
			off += trace.RecordSize
		}
	}
	// Stage 2: digests, every slot of a mask in one fused pass.
	for bi := range s.blocks {
		b := &s.blocks[bi]
		var dst [hashing.MaxFused][]uint32
		for q, h := range b.slots[:b.n] {
			dst[q] = fs.hashes[int(h)*frameChunk : int(h)*frameChunk+n]
		}
		b.f.SumKeys(fs.masked[b.mask*frameChunk:b.mask*frameChunk+n], dst[:b.n])
	}
	// Stage 3: duplicate combining.
	fs.nrep = 0
	if s.combine {
		fs.combine(len(s.hashes), n)
	}
	// Fresh PHV per frame: the result bus starts from reset state.
	for i := 0; i < n; i++ {
		fs.busRes[i], fs.busOld[i] = 0, 0
		fs.busMin[i] = ^uint32(0)
		fs.busNew[i] = false
	}
	// Stage 4: CMUs in pipeline order, each over the whole chunk.
	for gi := range s.groups {
		sg := &s.groups[gi]
		for ci := range sg.cmus {
			cmuFrames(pc, &sg.cmus[ci], recs, n)
		}
	}
}

// combine groups the chunk's n frames by their vector of digests over the
// first slots rows of the digest matrix into rep/cnt, in first-occurrence
// order. A chunk with no two equal vectors is left uncombined (nrep 0):
// its per-frame loop is the cheaper form of the same updates.
func (fs *frameScratch) combine(slots, n int) {
	fs.gen++
	if fs.gen == 0 { // wrapped: stamps of 2^32 chunks ago would read as live
		clear(fs.stamp[:])
		fs.gen = 1
	}
	gen, nrep := fs.gen, 0
	hashes := fs.hashes[:slots*frameChunk]
	for i := 0; i < n; i++ {
		var h uint32 // digests are finalised, so any slot's low bits hash well
		if slots > 0 {
			h = hashes[i]
		}
		for s := h; ; s++ {
			s &= combineSlots - 1
			if fs.stamp[s] != gen {
				fs.stamp[s], fs.entry[s] = gen, uint16(nrep)
				fs.rep[nrep], fs.cnt[nrep] = int32(i), 1
				nrep++
				break
			}
			e := fs.entry[s]
			if sameDigests(hashes, int(fs.rep[e]), i) {
				fs.cnt[e]++
				break
			}
		}
	}
	if nrep == n {
		nrep = 0
	}
	fs.nrep = nrep
}

// sameDigests reports whether frames a and b have equal digests in every
// row of the digest matrix hashes.
func sameDigests(hashes []uint32, a, b int) bool {
	for off := 0; off < len(hashes); off += frameChunk {
		if hashes[off+a] != hashes[off+b] {
			return false
		}
	}
	return true
}

// cmuFrames executes one CMU's program over the chunk: first-match rule
// selection per frame, then each rule's grouped update over the frames it
// won. A match-all rule at position 0 wins every frame (the dominant case —
// whole-traffic sketches), skipping the selection pass entirely.
func cmuFrames(pc *ProcCtx, sc *snapCMU, recs []byte, n int) {
	prog := sc.prog
	if prog[0].match.kind == matchAll {
		ruleFrames(pc, &prog[0], recs, n, nil)
		return
	}
	fs := &pc.frames
	const noRule = 0xFF
	rsel := fs.rule[:n]
	off := 0
	for i := 0; i < n; i++ {
		v := mmtrace.FrameView(recs[off : off+trace.RecordSize])
		rsel[i] = noRule
		for ri := range prog {
			if prog[ri].match.matchesFrame(v) {
				rsel[i] = uint8(ri)
				break
			}
		}
		off += trace.RecordSize
	}
	for ri := range prog {
		cnt := 0
		for i := 0; i < n; i++ {
			if rsel[i] == uint8(ri) {
				fs.sel[cnt] = int32(i)
				cnt++
			}
		}
		if cnt > 0 {
			ruleFrames(pc, &prog[ri], recs, n, fs.sel[:cnt])
		}
	}
}

// ruleFrames runs one compiled rule over its selected frames (sel nil =
// every frame in the chunk): gather the surviving (index, p1, p2) updates,
// apply them with one batched register call, scatter the witnesses back
// onto the result bus. Mirrors compiledRule.exec stage for stage.
func ruleFrames(pc *ProcCtx, r *compiledRule, recs []byte, n int, sel []int32) {
	fs := &pc.frames
	m := n
	if sel != nil {
		m = len(sel)
	}
	// exec counts a rule hit before the preparation stage can drop.
	if r.teleSlot >= 0 {
		pc.tele[r.teleSlot] += uint64(m)
	}
	// Frequency-sketch fast path: with no bus consumers in the snapshot the
	// witnesses are dead, and a constant saturating add needs only the
	// bucket indexes — resolve them in one hoisted loop and apply with the
	// witness-free base-bucket add (a fetch-and-add, or a plain add for a
	// single writer) or the lane add. On a combined chunk a match-all
	// base-bucket rule resolves the representatives only and adds count·p1
	// to each.
	if r.fastAdd && fs.snap.busQuiet {
		lane := r.sharded && pc.Ctx.Shard >= 0
		if lane || r.fastAddFull {
			idx := fs.upIdx[:frameChunk]
			if !lane && sel == nil && fs.nrep > 0 {
				reps := fs.rep[:fs.nrep]
				gatherIdxFrames(r, fs, n, reps, idx)
				r.reg.ApplyAddCounts(idx[:len(reps)], fs.cnt[:len(reps)], r.p1.value)
				return
			}
			gatherIdxFrames(r, fs, n, sel, idx)
			if lane {
				r.reg.ShardApplyAddBatch(int(pc.Ctx.Shard), idx[:m], r.p1.value)
			} else {
				r.reg.ApplyAddBatch(idx[:m], r.p1.value)
			}
			return
		}
	}
	k := 0
	for j := 0; j < m; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		addr := r.key.resolveFlat(fs.hashes, i)
		var index uint32
		if r.shifted {
			index = r.base + addr>>r.addrShift
		} else {
			index = r.base + addr&r.addrMask
		}
		p1 := frameParam(&r.p1, recs, i, fs)
		p2 := frameParam(&r.p2, recs, i, fs)
		if r.chainMin {
			p2 = fs.busMin[i]
		}
		if r.hasPrep {
			var drop bool
			p1, p2, drop = r.prep.applyVals(p1, p2, fs.busOld[i], fs.busNew[i])
			if drop {
				// A dropped update leaves the frame's bus untouched,
				// exactly like exec's early return.
				pc.Ctx.PrepDrops++
				continue
			}
		}
		fs.upFrame[k] = int32(i)
		fs.upIdx[k], fs.upP1[k], fs.upP2[k] = index, p1, p2
		k++
	}
	if k == 0 {
		return
	}
	if r.sharded && pc.Ctx.Shard >= 0 {
		r.reg.ShardApplyBatch(int(pc.Ctx.Shard), r.op,
			fs.upIdx[:k], fs.upP1[:k], fs.upP2[:k], fs.upRes[:k], fs.upOld[:k])
	} else {
		r.reg.ApplyBatch(r.op,
			fs.upIdx[:k], fs.upP1[:k], fs.upP2[:k], fs.upRes[:k], fs.upOld[:k])
	}
	if fs.snap.busQuiet {
		// No rule in the snapshot reads the bus: the scatter would only
		// write dead values.
		return
	}
	for j := 0; j < k; j++ {
		i := int(fs.upFrame[j])
		res, oldv := fs.upRes[j], fs.upOld[j]
		fs.busRes[i], fs.busOld[i] = res, oldv
		if r.chainMin && res > 0 && res < fs.busMin[i] {
			fs.busMin[i] = res
		}
		if r.detectNew {
			fs.busNew[i] = oldv&fs.upP1[j] == 0
		}
	}
}

// allFrames selects every frame of a chunk, in order.
var allFrames = func() (a [frameChunk]int32) {
	for i := range a {
		a[i] = int32(i)
	}
	return a
}()

// gatherIdxFrames fills idx[0:m] with the rule's bucket index for each
// selected frame (sel nil = the first n frames) — resolveFlat plus the
// address translation, with the digest rows, selector constants and
// translation hoisted out of the loop so the body is one rotate, two masks,
// a shift and an add.
func gatherIdxFrames(r *compiledRule, fs *frameScratch, n int, sel []int32, idx []uint32) {
	if sel == nil {
		sel = allFrames[:n]
	}
	idx = idx[:len(sel)]
	// The translation as base + (v>>sh)&am, for both methods.
	sh, am := uint32(0), r.addrMask
	if r.shifted {
		sh, am = r.addrShift, ^uint32(0)
		if sh >= 32 { // a zero-bucket range: every index is the base
			sh, am = 0, 0
		}
	}
	key := &r.key
	rot, kmask, base := -int(key.rot), key.mask, r.base
	ha, hb := fs.digestRow(key.a), fs.digestRow(key.b)
	if ha == nil {
		ha, hb = hb, nil
	}
	switch {
	case ha == nil: // no digest: every frame resolves to the base
		for j := range idx {
			idx[j] = base
		}
	case hb == nil:
		for j, i := range sel {
			v := bits.RotateLeft32(ha[i&(frameChunk-1)], rot) & kmask
			idx[j] = base + (v>>(sh&31))&am
		}
	default:
		for j, i := range sel {
			v := bits.RotateLeft32(ha[i&(frameChunk-1)]^hb[i&(frameChunk-1)], rot) & kmask
			idx[j] = base + (v>>(sh&31))&am
		}
	}
}

// digestRow returns digest slot a's row of the chunk's digest matrix, or
// nil for a < 0 (a selector half that contributes 0).
func (fs *frameScratch) digestRow(a int32) *[frameChunk]uint32 {
	if a < 0 {
		return nil
	}
	return (*[frameChunk]uint32)(fs.hashes[int(a)*frameChunk:])
}

// frameParam resolves a compiled parameter for frame i — the FrameView
// counterpart of compiledParam.resolve, loading metadata fields lazily from
// the record bytes and bus parameters from the per-frame arrays.
func frameParam(cp *compiledParam, recs []byte, i int, fs *frameScratch) uint32 {
	switch cp.kind {
	case ParamConst:
		return cp.value
	case ParamPacketSize:
		return mmtrace.FrameView(recs[i*trace.RecordSize:]).Size()
	case ParamTimestampUs:
		return uint32(mmtrace.FrameView(recs[i*trace.RecordSize:]).TimestampNs() / 1000)
	case ParamQueueLength:
		return mmtrace.FrameView(recs[i*trace.RecordSize:]).QueueLength()
	case ParamQueueDelay:
		return mmtrace.FrameView(recs[i*trace.RecordSize:]).QueueDelayNs()
	case ParamCompressedKey:
		return cp.sel.resolveFlat(fs.hashes, i)
	case ParamPrevResult:
		return fs.busRes[i]
	case ParamPrevOld:
		return fs.busOld[i]
	default:
		return 0
	}
}

// resolveFlat is compiledSel.resolve against the chunk digest matrix
// ([slot][frame], stride frameChunk) instead of a single packet's digest
// vector.
func (cs *compiledSel) resolveFlat(hashes []uint32, i int) uint32 {
	var v uint32
	if cs.a >= 0 {
		v = hashes[int(cs.a)*frameChunk+i]
	}
	if cs.b >= 0 {
		v ^= hashes[int(cs.b)*frameChunk+i]
	}
	if cs.rot != 0 {
		v = v>>cs.rot | v<<(32-cs.rot)
	}
	return v & cs.mask
}

// matchesFrame is compiledMatch.matches over the raw record — same
// comparisons, lazy field loads.
func (cm *compiledMatch) matchesFrame(v mmtrace.FrameView) bool {
	switch cm.kind {
	case matchAll:
		return true
	case matchExact:
		return (cm.srcPort == 0 || cm.srcPort == v.SrcPort()) &&
			(cm.dstPort == 0 || cm.dstPort == v.DstPort()) &&
			(cm.proto == 0 || cm.proto == v.Proto())
	case matchPrefix:
		return v.SrcIP()&cm.srcMask == cm.srcVal &&
			v.DstIP()&cm.dstMask == cm.dstVal
	default:
		return v.SrcIP()&cm.srcMask == cm.srcVal &&
			v.DstIP()&cm.dstMask == cm.dstVal &&
			(cm.srcPort == 0 || cm.srcPort == v.SrcPort()) &&
			(cm.dstPort == 0 || cm.dstPort == v.DstPort()) &&
			(cm.proto == 0 || cm.proto == v.Proto())
	}
}
