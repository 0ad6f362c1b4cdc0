package core

import (
	"math/bits"
	"sync"

	"flymon/internal/dataplane"
	"flymon/internal/hashing"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// This file is the FrameView-native engine: Snapshot.ProcessFrames executes
// a span of mmapped trace records with no packet.Packet materialization,
// restructured from packet-at-a-time to stage-at-a-time over chunks of
// FrameChunk frames — one replay span each:
//
//   1. Group. Each frame's key under the union of the snapshot's field
//      masks (the per-field OR) is read straight from the record bytes, and
//      the chunk's frames are grouped by it into (representative, count)
//      pairs plus a per-frame group column (frameScratch.group). Frames
//      with equal union keys have equal keys under every mask, so every
//      digest of theirs is equal too.
//   2. Extract and digest the representatives. Each distinct field mask is
//      extracted for the representatives only (FrameView.ExtractMasked),
//      and each mask's digest slots — every polynomial that mask feeds —
//      come from one pass of its fused kernel (hashing.Fused) over those
//      keys. Row g of the digest matrix is group g's. The dedup and block
//      decisions were made at Compile time; the loops carry no per-packet
//      lookups or dispatch.
//   3. Update. The plan's column CMUs run in pipeline order, each rule
//      over the frames it won — first-match over the records, or over the
//      groups' keys when every filter of the CMU reads only key bits
//      (plan.selection) — with the kernel the plan gave it (plan.go):
//      generic — an index column (gatherIdxFrames) reading each frame's
//      digests through its group, one column per parameter and one
//      preparation kernel, each a loop with its kind switch hoisted out,
//      one dataplane.ApplyBatch call, and, when the snapshot reads the
//      bus, the witnesses scattered onto per-frame result-bus arrays — or
//      combined, one update per group (ApplyAddCounts, ruleGroups).
//      The CMUs the plan keeps off the column stage then run frame by
//      frame in trace order on the same digests (orderedFrames).
//
// Combining is exact. Frames share a group only when their keys are equal
// under every mask, so a rule's bucket index — a function of the digests
// alone — is the same for every frame of a group, and so is a parameter
// drawn from a constant or a compressed key, and with it the preparation
// stage's output and its drop verdict (a dropped group counts its frames).
// count·p1 applied once leaves the bucket and its clamp count where count
// adds of p1 would; distinct keys that collide in every digest get a group
// each, and their adds land on the same bucket one after the other, which
// ApplyAddCounts makes equal to adding them frame by frame. OR, AND and MAX
// are commutative and idempotent per bucket and never clamp, so one update
// with a group's parameter — or with its frames' parameters folded under
// the op: the max of p1 & mask, the OR, the AND — leaves the bucket where
// the group's frames would, in any order against other groups. AND-OR
// combines only with a constant p2: a group that ORs and one that ANDs the
// same bucket do not commute. Rule hits still count per frame; the only
// values combining does not produce are the per-frame result/old
// witnesses, which no rule of a bus-quiet snapshot reads. A filter is a
// masked compare of the same two key words the grouping reads: when every
// filter of a CMU reads only bits of the grouping key (the union of the
// masks), all frames of a group share each verdict, so first-match runs
// once per group over its key, and a filtered rule combines over the
// groups it selects as a match-all one does over all of them. A CMU with a
// filter bit outside the key, or in an ungrouped chunk, selects frame by
// frame and updates per frame.
//
// Equivalence to the sequential path. Within one CMU, rules select disjoint
// frame sets (first-match), every uncombined rule's updates are applied in
// frame order, and distinct rules of a CMU own disjoint bucket ranges
// (enforced at install time) on a register no other CMU touches — so the
// per-bucket update sequence a register observes is the packet-at-a-time
// order (for a combined rule, one that ends in the same state), and with it
// every live result/old witness, clamp event, and telemetry count. The
// chunk reordering only interleaves updates of *different* buckets, which
// no observable depends on.

// FrameChunk is the frame engine's chunk width in frames: ProcessFrames cuts
// a span into chunks of at most this many frames and groups each chunk on
// its own. It equals mmtrace's replay span (its defaultBatch constant), so
// a replayed span is one chunk and is grouped whole
// (TestReplaySpanIsWholeChunks holds the two together). A wider chunk
// finds more repeats of a key to combine: on a Zipf 1.1 trace of 100k
// flows, 52 % of frames start a new group at 512 frames, 41 % at 2,048,
// 36 % at 4,096. The scratch at this width is 348 KB of bus, gather and
// grouping arrays, plus 128 KB of digest matrix and 80 KB of masked keys
// for a nine-task five-tuple pipeline (one mask, eight digests); a process
// holds one per span running at once (borrowScratch), not one per
// context. Every
// i&(FrameChunk-1) in this file and the grouping hash's uint16 entries
// rely on its being a power of two no larger than 1<<16
// (TestFrameChunkInvariants).
const FrameChunk = 1 << chunkBits

// chunkBits is log2(FrameChunk); groupBits sizes the grouping open hash
// from it: 2^groupBits = groupSlots slots, twice the chunk, so its load
// factor stays at or below one half.
const (
	chunkBits  = 12
	groupBits  = chunkBits + 1
	groupSlots = 1 << groupBits
)

// frameScratch is the chunk engine's state for one running span, lent by
// borrowScratch and handed back by release. The dynamic slices are sized
// to the armed snapshot's digest tables; once the list's scratch has grown
// to a configuration's shape the engine is allocation-free (the ZeroAlloc
// gates cover it).
type frameScratch struct {
	// snap is the snapshot masked/hashes are sized for, nil while the
	// scratch is on the free list.
	snap *Snapshot
	// masked holds each distinct mask's canonical keys of the chunk's
	// representatives, laid out [mask][group] with stride FrameChunk.
	masked []packet.CanonicalKey
	// hashes holds each distinct digest slot, laid out [slot][group] with
	// stride FrameChunk; frameScratch.selColumn reads its rows.
	hashes []uint32

	// Per-frame result bus: the batch counterparts of Context.PrevResult,
	// PrevOld, RunningMin, and PrevNewFlow.
	busRes [FrameChunk]uint32
	busOld [FrameChunk]uint32
	busMin [FrameChunk]uint32
	busNew [FrameChunk]bool

	// Gather buffers for one rule's grouped register application: the
	// selected frames and their groups, then per surviving update its
	// frame, bucket index, parameters, and witnessed (result, old).
	sel     [FrameChunk]int32
	selRows [FrameChunk]int32
	upFrame [FrameChunk]int32
	upIdx   [FrameChunk]uint32
	upP1    [FrameChunk]uint32
	upP2    [FrameChunk]uint32
	upRes   [FrameChunk]uint32
	upOld   [FrameChunk]uint32

	// Grouping: rep[0:nrep] are the first frames of the chunk's distinct
	// keys, in frame order, cnt their multiplicities, key their union keys
	// and grp[i] frame i's group. An ungrouped chunk (plan.grouped
	// false) fills none of them: every frame is its own group. The open
	// hash maps a key to its group; a slot is live only while its stamp
	// equals gen, so starting a chunk costs one increment, not a clear.
	rep   [FrameChunk]int32
	cnt   [FrameChunk]uint32
	grp   [FrameChunk]int32
	key   [FrameChunk][2]uint64
	nrep  int
	gen   uint32
	stamp [groupSlots]uint32
	entry [groupSlots]uint16
}

// scratchList is the process-wide free list of chunk scratch. A span
// borrows one for as long as it runs, so the process holds as many as
// spans ever ran at once, however many controllers and contexts exist. It
// is not a sync.Pool, which drops its items at every collection (and at
// random under the race detector), re-allocating half a megabyte a time.
var scratchList struct {
	sync.Mutex
	free []*frameScratch
}

// borrowScratch lends a scratch armed for s, allocating one only when
// every listed scratch is lent.
func borrowScratch(s *Snapshot) *frameScratch {
	scratchList.Lock()
	var fs *frameScratch
	if n := len(scratchList.free); n > 0 {
		fs = scratchList.free[n-1]
		scratchList.free = scratchList.free[:n-1]
	}
	scratchList.Unlock()
	if fs == nil {
		fs = new(frameScratch)
	}
	fs.arm(s)
	return fs
}

// release hands fs back to the free list. It drops the snapshot first: a
// listed scratch that kept it would pin a closed controller's registers.
func (fs *frameScratch) release() {
	fs.snap = nil
	scratchList.Lock()
	scratchList.free = append(scratchList.free, fs)
	scratchList.Unlock()
}

// arm sizes the digest scratch for s. Only a snapshot with more distinct
// masks or digests allocates; re-arming a scratch that held a same-shape
// configuration is free.
func (fs *frameScratch) arm(s *Snapshot) {
	if fs.snap == s {
		return
	}
	fs.snap = s
	if need := len(s.masks) * FrameChunk; cap(fs.masked) < need {
		fs.masked = make([]packet.CanonicalKey, need)
	}
	fs.masked = fs.masked[:len(s.masks)*FrameChunk]
	if need := len(s.hashes) * FrameChunk; cap(fs.hashes) < need {
		fs.hashes = make([]uint32, need)
	}
	fs.hashes = fs.hashes[:len(s.hashes)*FrameChunk]
}

// FrameVectorized reports whether the plan runs every CMU on the column
// stage: no enabled main-pass rule is sampled and no spliced group live.
func (s *Snapshot) FrameVectorized() bool { return len(s.plan.ordered)+len(s.plan.spliced) == 0 }

// ProcessFrames pushes frames [lo, hi) of t through the compiled pipeline
// with no packet materialization. Results — register contents, result-bus
// interactions, telemetry counts, clamp events, rng coin draws — are
// bit-identical to decoding the same frames and calling Process on each in
// order. Safe for concurrent callers with distinct contexts, like Process.
// The chunk scratch is borrowed for the span and handed back after it.
func (s *Snapshot) ProcessFrames(pc *ProcCtx, t *mmtrace.Trace, lo, hi int) {
	fs := borrowScratch(s)
	for lo < hi {
		n := min(hi-lo, FrameChunk)
		s.processFrameChunk(pc, fs, t.Span(lo, lo+n), n)
		lo += n
	}
	fs.release()
}

// processFrameChunk runs one chunk of n frames (recs holds exactly their
// record bytes) through every stage: the plan's column CMUs over the whole
// chunk, then the packet-order pass for the rest.
func (s *Snapshot) processFrameChunk(pc *ProcCtx, fs *frameScratch, recs []byte, n int) {
	s.digestChunk(pc, fs, recs, n)
	// Fresh PHV per frame: the result bus starts from reset state. A
	// bus-quiet plan neither reads nor scatters it (its packet-order pass
	// runs on pc.Ctx), so it skips the reset.
	if !s.plan.quiet {
		for i := 0; i < n; i++ {
			fs.busRes[i], fs.busOld[i] = 0, 0
			fs.busMin[i] = ^uint32(0)
			fs.busNew[i] = false
		}
	}
	// Stage 3: the column CMUs in pipeline order, each over the whole
	// chunk.
	for ci := range s.plan.column {
		cmuFrames(pc, fs, &s.plan.column[ci], recs, n)
	}
	if !s.FrameVectorized() {
		s.pl.packetOrder.Add(uint64(n))
		s.orderedFrames(pc, fs, recs, n)
	}
}

// digestChunk counts a chunk of n frames in and runs stages 1 and 2 on it,
// leaving the groups and the digest matrix in fs.
func (s *Snapshot) digestChunk(pc *ProcCtx, fs *frameScratch, recs []byte, n int) {
	s.pl.packets.Add(uint64(n))
	if s.teleOn {
		pc.teleTickBatch(s, n)
	}

	// Stage 1: group the chunk's frames by their union key.
	reps := allFrames[:n]
	if s.plan.grouped {
		reps = fs.group(&s.plan.keyMask, recs, n)
	}
	fs.nrep = len(reps)
	// Stage 2: the representatives' masked canonical keys, one mask at a
	// time, then their digests, every slot of a mask in one fused pass.
	for m := range s.masks {
		mask := &s.masks[m]
		dst := fs.masked[m*FrameChunk : m*FrameChunk+len(reps)]
		for g, f := range reps {
			frameAt(recs, f).ExtractMasked(mask, &dst[g])
		}
	}
	for bi := range s.blocks {
		b := &s.blocks[bi]
		var dst [hashing.MaxFused][]uint32
		for q, h := range b.slots[:b.n] {
			dst[q] = fs.hashes[int(h)*FrameChunk : int(h)*FrameChunk+len(reps)]
		}
		b.f.SumKeys(fs.masked[b.mask*FrameChunk:b.mask*FrameChunk+len(reps)], dst[:b.n])
	}
}

// orderedFrames is the chunk's packet-order pass: Snapshot.Process, in
// trace order with its group's digests, on each frame a packet-order rule
// or a spliced filter matches (no other would draw a coin or execute) —
// the plan's ordered CMUs, then, mirrored, its spliced ones. Exact for the
// column stage's reason: a column CMU draws no coin, owns its register and
// in a bus-quiet snapshot neither reads nor feeds another CMU; coins fall
// as in Process, so a reconfiguration changes the form, never results.
func (s *Snapshot) orderedFrames(pc *ProcCtx, fs *frameScratch, recs []byte, n int) {
	if cap(pc.hashes) < len(s.hashes) {
		pc.hashes = make([]uint32, len(s.hashes))
	}
	pc.hashes = pc.hashes[:len(s.hashes)]
	p := &pc.framePkt
	rec := 0
	for i := 0; i < n; i++ {
		v := frameAt(recs, int32(i))
		if !matchesAnyFrame(s.plan.frameMatch, v) {
			continue
		}
		v.Decode(p)
		row := i
		if s.plan.grouped {
			row = int(fs.grp[i])
		}
		for h := range pc.hashes {
			pc.hashes[h] = fs.hashes[h*FrameChunk+row]
		}
		pc.reset(p)
		for ci := range s.plan.ordered {
			s.plan.ordered[ci].process(&pc.Ctx, pc.hashes)
		}
		if len(s.splicedMatch) == 0 || !s.wants(p) {
			continue
		}
		// The mirrored copy re-enters the pipeline: a fresh PHV.
		rec++
		pc.reset(p)
		for ci := range s.plan.spliced {
			s.plan.spliced[ci].process(&pc.Ctx, pc.hashes)
		}
	}
	if rec > 0 {
		s.pl.recirculated.Add(uint64(rec))
		if s.teleOn {
			pc.teleRecPend += uint32(rec)
		}
	}
}

// groupKeyMask packs the union (per-field OR) of masks into the two words
// frameScratch.group reads from each record (FrameView.KeyWords): source
// and destination address in the first, ports and protocol in the second,
// each field narrowed to its width the way packet.ExtractMasked narrows it,
// so no mask bit reaches the record's pad bytes. ok is false when the union
// reads any other field — the timestamp, which no two frames of a chunk
// share — and the engine then does not group.
func groupKeyMask(masks [][packet.NumFields]uint32) (km [2]uint64, ok bool) {
	ok = true
	for _, m := range masks {
		for f, v := range m {
			switch packet.Field(f) {
			case packet.FieldSrcIP:
				km[0] |= uint64(v)
			case packet.FieldDstIP:
				km[0] |= uint64(v) << 32
			case packet.FieldSrcPort:
				km[1] |= uint64(uint16(v))
			case packet.FieldDstPort:
				km[1] |= uint64(uint16(v)) << 16
			case packet.FieldProto:
				km[1] |= uint64(uint8(v)) << 32
			default:
				ok = ok && v == 0
			}
		}
	}
	return km, ok
}

// group groups the chunk's n frames by their union key (the record's two
// key words under km, groupKeyMask's packing) into rep, cnt, key and grp,
// in first-occurrence order, and returns the representatives. The open
// hash is probed by a multiplicative hash of the key and confirmed by
// comparing it.
func (fs *frameScratch) group(km *[2]uint64, recs []byte, n int) []int32 {
	fs.gen++
	if fs.gen == 0 { // wrapped: stamps of 2^32 chunks ago would read as live
		clear(fs.stamp[:])
		fs.gen = 1
	}
	gen, nrep := fs.gen, 0
	km0, km1 := km[0], km[1]
	grp := fs.grp[:n]
	for i := range grp {
		w0, w1 := frameAt(recs, int32(i)).KeyWords()
		k0, k1 := w0&km0, w1&km1
		h := uint32(((k0 ^ bits.RotateLeft64(k1, 29)) * 0x9e3779b97f4a7c15) >> (64 - groupBits))
		for s := h; ; s++ {
			s &= groupSlots - 1
			if fs.stamp[s] != gen {
				fs.stamp[s], fs.entry[s] = gen, uint16(nrep)
				fs.rep[nrep], fs.cnt[nrep], fs.key[nrep] = int32(i), 1, [2]uint64{k0, k1}
				grp[i] = int32(nrep)
				nrep++
				break
			}
			if e := fs.entry[s]; fs.key[e][0] == k0 && fs.key[e][1] == k1 {
				fs.cnt[e]++
				grp[i] = int32(e)
				break
			}
		}
	}
	return fs.rep[:nrep]
}

// digestRows returns the digest-matrix rows of the selected frames: their
// groups, or the frames themselves in an ungrouped chunk. whole marks sel
// as every frame of the chunk, whose rows are the group column itself.
func (fs *frameScratch) digestRows(sel []int32, whole bool) []int32 {
	switch {
	case !fs.snap.plan.grouped:
		return sel
	case whole:
		return fs.grp[:len(sel)]
	}
	rows := fs.selRows[:len(sel)]
	for j, i := range sel {
		rows[j] = fs.grp[i&(FrameChunk-1)]
	}
	return rows
}

// cmuFrames executes one CMU's program over the chunk: each rule in
// program order selects what it matches that no earlier rule claimed
// (first-match), then runs its update over it. Matching reads only record
// bytes, so running a rule before the next one selects changes nothing. A
// match-all rule at position 0 wins every frame (the dominant case —
// whole-traffic sketches), skipping the selection pass entirely. When every
// filter of the CMU reads only bits of the chunk's grouping key, frames of
// one group share every verdict, so first-match runs over the groups' keys
// instead of the records (plan.selection).
func cmuFrames(pc *ProcCtx, fs *frameScratch, sc *snapCMU, recs []byte, n int) {
	prog := sc.prog
	switch fs.snap.plan.selection(sc) {
	case selectAll:
		if r := &prog[0]; fs.snap.plan.grouped && r.perGroup(pc) {
			ruleGroups(pc, fs, r, recs, n, allFrames[:fs.nrep], n)
		} else {
			ruleFrames(pc, fs, r, recs, n, nil)
		}
		return
	case selectGroups:
		groupsFirstMatch(pc, fs, prog, recs, n)
		return
	}
	var claimed [FrameChunk / 64]uint64
	for ri := range prog {
		cm, cnt, off := prog[ri].match, 0, 0
		for i := 0; i < n; i++ {
			if claimed[i>>6]&(1<<(i&63)) == 0 &&
				cm.matchesFrame(mmtrace.FrameView(recs[off:off+trace.RecordSize])) {
				claimed[i>>6] |= 1 << (i & 63)
				fs.sel[cnt] = int32(i)
				cnt++
			}
			off += trace.RecordSize
		}
		if cnt > 0 {
			ruleFrames(pc, fs, &prog[ri], recs, n, fs.sel[:cnt])
		}
	}
}

// groupsFirstMatch is cmuFrames' first-match over the chunk's groups: each
// rule in program order takes the unclaimed groups whose key its filter
// matches, in group order, and updates them one per group (ruleGroups) or,
// with a kernel that runs per frame, their frames in trace order.
func groupsFirstMatch(pc *ProcCtx, fs *frameScratch, prog []compiledRule, recs []byte, n int) {
	var claimed [FrameChunk / 64]uint64
	keys, cnts := fs.key[:fs.nrep], fs.cnt[:fs.nrep]
	for ri := range prog {
		r := &prog[ri]
		cm, cnt, frames := r.match, 0, 0
		for g, k := range keys {
			if claimed[g>>6]&(1<<(g&63)) == 0 && cm.matchesKey(k[0], k[1]) {
				claimed[g>>6] |= 1 << (g & 63)
				fs.sel[cnt] = int32(g)
				frames += int(cnts[g])
				cnt++
			}
		}
		switch {
		case cnt == 0:
		case r.perGroup(pc):
			ruleGroups(pc, fs, r, recs, n, fs.sel[:cnt], frames)
		default:
			ruleFrames(pc, fs, r, recs, n, fs.framesOf(fs.sel[:cnt], n))
		}
	}
}

// framesOf lists in fs.sel, in trace order, the frames of the chunk's n
// whose group is one of groups (which may be fs.sel itself).
func (fs *frameScratch) framesOf(groups []int32, n int) []int32 {
	var pick [FrameChunk / 64]uint64
	for _, g := range groups {
		pick[g>>6&(FrameChunk/64-1)] |= 1 << (g & 63)
	}
	k := 0
	for i, g := range fs.grp[:n] {
		if pick[g>>6&(FrameChunk/64-1)]&(1<<(g&63)) != 0 {
			fs.sel[k] = int32(i)
			k++
		}
	}
	return fs.sel[:k]
}

// ruleFrames runs one compiled rule over its selected frames (sel nil =
// every frame in the chunk), one update per frame. The generic kernel
// mirrors compiledRule.exec stage for stage: the bucket-index column, one
// column per parameter, the preparation kernel, one batched register call
// and, when the rule scatters, the witness scatter; an add-counts rule
// needs the index column only, applied with the witness-free add. Digest
// columns read each frame's digests through its group (digestRows).
func ruleFrames(pc *ProcCtx, fs *frameScratch, r *compiledRule, recs []byte, n int, sel []int32) {
	whole := sel == nil
	if whole {
		sel = allFrames[:n]
	}
	// exec counts a rule hit before the preparation stage can drop.
	if r.teleSlot >= 0 {
		pc.tele[r.teleSlot] += uint64(len(sel))
	}
	lane := r.lane(pc)
	m := len(sel)
	rows := fs.digestRows(sel, whole)
	idx, p1, p2 := fs.upIdx[:m], fs.upP1[:m], fs.upP2[:m]
	gatherIdxFrames(r, fs, rows, idx)
	if r.kernel == kernelAddCounts {
		if lane {
			r.reg.ShardApplyAddBatch(int(pc.Ctx.Shard), idx, r.p1.value)
		} else {
			r.reg.ApplyAddBatch(idx, r.p1.value)
		}
		return
	}
	fs.paramColumn(&r.p1, recs, sel, rows, p1)
	if r.chainMin {
		for j, i := range sel {
			p2[j] = fs.busMin[i&(FrameChunk-1)]
		}
	} else {
		fs.paramColumn(&r.p2, recs, sel, rows, p2)
	}
	// A dropped update leaves its frame's bus untouched, like exec's early
	// return: the scatter walks the compacted frame column.
	frames := sel
	if r.hasPrep {
		frames = fs.upFrame[:m]
		copy(frames, sel)
		frames = frames[:fs.prepare(&r.prep, m, &pc.Ctx)]
	}
	k := len(frames)
	if k == 0 {
		return
	}
	if lane {
		r.reg.ShardApplyBatch(int(pc.Ctx.Shard), r.op,
			idx[:k], p1[:k], p2[:k], fs.upRes[:k], fs.upOld[:k])
	} else {
		r.reg.ApplyBatch(r.op, idx[:k], p1[:k], p2[:k], fs.upRes[:k], fs.upOld[:k])
	}
	if !r.scatter {
		return
	}
	for j, f := range frames {
		i := f & (FrameChunk - 1)
		res, oldv := fs.upRes[j], fs.upOld[j]
		fs.busRes[i], fs.busOld[i] = res, oldv
		if r.chainMin && res > 0 && res < fs.busMin[i] {
			fs.busMin[i] = res
		}
		if r.detectNew {
			fs.busNew[i] = oldv&p1[j] == 0
		}
	}
}

// lane reports whether r writes pc's private lane (mergeable.go).
func (r *compiledRule) lane(pc *ProcCtx) bool { return r.sharded && pc.Ctx.Shard >= 0 }

// perGroup reports whether r issues one update per flow group: a combined
// or folded kernel, or an add-counts one off a lane (a lane has no counted
// add).
func (r *compiledRule) perGroup(pc *ProcCtx) bool {
	switch r.kernel {
	case kernelCombined, kernelFoldedP1:
		return true
	case kernelAddCounts:
		return !r.lane(pc)
	}
	return false
}

// ruleGroups runs a per-group rule (perGroup) over groups, flow groups of a
// grouped chunk of n frames in ascending order holding frames frames in
// all, one update per group: the index column over the groups' digest rows,
// then count·p1 per group for an add (ApplyAddCounts), or p1 either as a
// column over the representatives followed by the preparation stage (a
// dropped group drops all its frames) or, folded, per group under the op
// (frameScratch.reduceP1). Rule hits count frames.
func ruleGroups(pc *ProcCtx, fs *frameScratch, r *compiledRule, recs []byte, n int, groups []int32, frames int) {
	if r.teleSlot >= 0 {
		pc.tele[r.teleSlot] += uint64(frames)
	}
	m := len(groups)
	whole := m == fs.nrep // every group, so groups[j] == j
	idx, p1, p2 := fs.upIdx[:m], fs.upP1[:m], fs.upP2[:m]
	gatherIdxFrames(r, fs, groups, idx)
	if r.kernel == kernelAddCounts {
		switch {
		case frames == m: // every group one frame
			r.reg.ApplyAddBatch(idx, r.p1.value)
		case whole:
			r.reg.ApplyAddCounts(idx, fs.cnt[:m], r.p1.value)
		default:
			for j, g := range groups {
				p2[j] = fs.cnt[g&(FrameChunk-1)]
			}
			r.reg.ApplyAddCounts(idx, p2, r.p1.value)
		}
		return
	}
	reps := fs.rep[:m]
	if !whole {
		reps = fs.selRows[:m]
		for j, g := range groups {
			reps[j] = fs.rep[g&(FrameChunk-1)]
		}
	}
	fs.paramColumn(&r.p2, recs, reps, groups, p2)
	k := m
	if r.kernel == kernelFoldedP1 {
		fs.reduceP1(r, recs, n)
		if !whole {
			for j, g := range groups { // g >= j: compacts in place
				p1[j] = fs.upP1[g&(FrameChunk-1)]
			}
		}
	} else {
		fs.paramColumn(&r.p1, recs, reps, groups, p1)
		if r.hasPrep {
			kept := fs.upFrame[:m]
			copy(kept, groups)
			if k = fs.prepare(&r.prep, m, &pc.Ctx); k < m {
				// prepare counted one drop per dropped group; the group's
				// other frames drop with it.
				keptFrames := 0
				for _, g := range kept[:k] {
					keptFrames += int(fs.cnt[g&(FrameChunk-1)])
				}
				pc.Ctx.PrepDrops += uint64(frames - keptFrames - (m - k))
			}
		}
	}
	if k == 0 {
		return
	}
	if r.lane(pc) {
		r.reg.ShardApplyBatch(int(pc.Ctx.Shard), r.op,
			idx[:k], p1[:k], p2[:k], fs.upRes[:k], fs.upOld[:k])
	} else {
		r.reg.ApplyBatch(r.op, idx[:k], p1[:k], p2[:k], fs.upRes[:k], fs.upOld[:k])
	}
}

// reduceP1 folds the per-frame parameter p1 of the chunk's n frames into
// upP1[g] for every group g under the rule's op — the maximum of p1 under
// the register's width mask for MAX (the mask first, as the register
// applies it), the AND for AND-OR with p2 = 0, the OR otherwise — so that one
// update per group leaves each bucket where the group's frames would. upRes
// holds the per-frame values meanwhile.
func (fs *frameScratch) reduceP1(r *compiledRule, recs []byte, n int) {
	vals := fs.upRes[:n]
	fs.paramColumn(&r.p1, recs, allFrames[:n], nil, vals)
	acc, grp := &fs.upP1, fs.grp[:n]
	switch {
	case r.op == dataplane.OpMax:
		mask := r.reg.Mask()
		clear(acc[:fs.nrep])
		for i, g := range grp {
			acc[g&(FrameChunk-1)] = max(acc[g&(FrameChunk-1)], vals[i]&mask)
		}
	case r.p2.value == 0:
		for g := range acc[:fs.nrep] {
			acc[g] = ^uint32(0)
		}
		for i, g := range grp {
			acc[g&(FrameChunk-1)] &= vals[i]
		}
	default:
		clear(acc[:fs.nrep])
		for i, g := range grp {
			acc[g&(FrameChunk-1)] |= vals[i]
		}
	}
}

// allFrames selects every frame of a chunk, in order.
var allFrames = func() (a [FrameChunk]int32) {
	for i := range a {
		a[i] = int32(i)
	}
	return a
}()

// gatherIdxFrames fills idx[j] with the rule's bucket index for digest row
// rows[j]: the key selector's column under the rule's address translation,
// written as base + (v>>sh)&am for both methods.
func gatherIdxFrames(r *compiledRule, fs *frameScratch, rows []int32, idx []uint32) {
	sh, am := uint32(0), r.addrMask
	if r.shifted {
		sh, am = r.addrShift, ^uint32(0)
		if sh >= 32 { // a zero-bucket range: every index is the base
			sh, am = 0, 0
		}
	}
	fs.selColumn(&r.key, rows, r.base, sh, am, idx)
}

// selColumn fills dst[j] with base + (v>>sh)&am, where v is selector cs
// resolved for digest row rows[j] of the chunk's digest matrix — the chunk
// counterpart of compiledSel.resolve. The digest rows and
// constants are hoisted, so the body is one rotate, two masks, a shift and
// an add. A compressed-key parameter passes the identity (0, 0, ^0).
func (fs *frameScratch) selColumn(cs *compiledSel, rows []int32, base, sh, am uint32, dst []uint32) {
	dst = dst[:len(rows)]
	rot, kmask := -int(cs.rot), cs.mask
	ha, hb := fs.digestRow(cs.a), fs.digestRow(cs.b)
	if ha == nil {
		ha, hb = hb, nil
	}
	switch {
	case ha == nil: // no digest: every frame resolves to the base
		for j := range dst {
			dst[j] = base
		}
	case hb == nil:
		for j, i := range rows {
			v := bits.RotateLeft32(ha[i&(FrameChunk-1)], rot) & kmask
			dst[j] = base + (v>>(sh&31))&am
		}
	default:
		for j, i := range rows {
			v := bits.RotateLeft32(ha[i&(FrameChunk-1)]^hb[i&(FrameChunk-1)], rot) & kmask
			dst[j] = base + (v>>(sh&31))&am
		}
	}
}

// digestRow returns digest slot a's row of the chunk's digest matrix, or
// nil for a < 0 (a selector half that contributes 0).
func (fs *frameScratch) digestRow(a int32) *[FrameChunk]uint32 {
	if a < 0 {
		return nil
	}
	return (*[FrameChunk]uint32)(fs.hashes[int(a)*FrameChunk:])
}

// paramColumn fills dst[j] with parameter cp of frame sel[j], whose digest
// row is rows[j], one loop per ParamKind — the FrameView counterpart of
// compiledParam.resolve: metadata from the record bytes, compressed keys
// through the index column's selector loop, bus parameters from the
// per-frame arrays.
func (fs *frameScratch) paramColumn(cp *compiledParam, recs []byte, sel, rows []int32, dst []uint32) {
	dst = dst[:len(sel)]
	switch cp.kind {
	case ParamConst:
		for j := range dst {
			dst[j] = cp.value
		}
	case ParamPacketSize:
		for j, i := range sel {
			dst[j] = frameAt(recs, i).Size()
		}
	case ParamTimestampUs:
		for j, i := range sel {
			dst[j] = uint32(frameAt(recs, i).TimestampNs() / 1000)
		}
	case ParamQueueLength:
		for j, i := range sel {
			dst[j] = frameAt(recs, i).QueueLength()
		}
	case ParamQueueDelay:
		for j, i := range sel {
			dst[j] = frameAt(recs, i).QueueDelayNs()
		}
	case ParamCompressedKey:
		fs.selColumn(&cp.sel, rows, 0, 0, ^uint32(0), dst)
	case ParamPrevResult:
		for j, i := range sel {
			dst[j] = fs.busRes[i&(FrameChunk-1)]
		}
	case ParamPrevOld:
		for j, i := range sel {
			dst[j] = fs.busOld[i&(FrameChunk-1)]
		}
	default:
		clear(dst)
	}
}

// frameAt is frame i of a chunk's record bytes.
func frameAt(recs []byte, i int32) mmtrace.FrameView {
	return mmtrace.FrameView(recs[int(i)*trace.RecordSize:])
}

// prepare runs preparation stage t over the first m gathered updates
// (upFrame, upIdx, upP1, upP2), one loop per TransformKind, and returns how
// many survive: dropped updates are compacted out of all four columns in
// place, in frame order, and added to ctx.PrepDrops once. Element for
// element it is Transform.applyVals, the sequential path's kernel.
func (fs *frameScratch) prepare(t *Transform, m int, ctx *Context) int {
	frames, idx, p1, p2 := fs.upFrame[:m], fs.upIdx[:m], fs.upP1[:m], fs.upP2[:m]
	k := m
	switch t.Kind {
	case TransformCoupon:
		if t.ProbLog2 <= 0 {
			for j := range p1 {
				p1[j], p2[j] = 1, 1
			}
			break
		}
		sh := uint(32 - t.ProbLog2)
		k = 0
		for j, v := range p1 {
			if c := int(v >> sh); c < t.Coupons {
				frames[k], idx[k], p1[k], p2[k] = frames[j], idx[j], 1<<uint(c), 1
				k++
			}
		}
	case TransformBitSelect:
		w := t.Width
		if w <= 0 {
			w = 32
		}
		for j, v := range p1 {
			p1[j], p2[j] = 1<<(v%uint32(w)), 1
		}
	case TransformLZRank:
		d, top := uint(t.Discard), uint32(32-t.Discard+1)
		for j, v := range p1 {
			if rest := v << d; rest != 0 {
				p1[j] = uint32(bits.LeadingZeros32(rest)) + 1
			} else {
				p1[j] = top
			}
		}
	case TransformIntervalSub:
		k = 0
		for j, f := range frames {
			i, v := f&(FrameChunk-1), p1[j]
			switch {
			case fs.busNew[i]:
				v = 0
			case v < fs.busOld[i]:
				continue
			default:
				v -= fs.busOld[i]
			}
			frames[k], idx[k], p1[k], p2[k] = f, idx[j], v, p2[j]
			k++
		}
	case TransformZeroGate:
		for j, v := range p1 {
			if v == 0 {
				p1[j] = t.IfZero
			} else {
				p1[j] = t.Else
			}
		}
	}
	ctx.PrepDrops += uint64(m - k)
	return k
}

// matchesAnyFrame reports whether any of ms matches the raw record.
func matchesAnyFrame(ms []compiledMatch, v mmtrace.FrameView) bool {
	for i := range ms {
		if ms[i].matchesFrame(v) {
			return true
		}
	}
	return false
}

// matchesFrame is compiledMatch.matches over the raw record's key words.
func (cm *compiledMatch) matchesFrame(v mmtrace.FrameView) bool {
	return cm.matchesKey(v.KeyWords())
}
