package dataplane

import (
	"math"
	"sync/atomic"
)

// Batched register application — the grouped-update half of the
// FrameView-native engine. The packet-at-a-time paths (Apply/ShardApply)
// pay an op-dispatch branch per update; here one rule's updates for a
// whole frame span arrive together, so the op switch is hoisted out of the
// loop. Per-update semantics — result/old pairs, clamp accounting, CAS
// linearizability — are identical to issuing the same updates one at a
// time in slice order, which is what keeps the batch engine bit-identical
// to sequential replay.

// ApplyBatch performs one stateful operation per element of idx against the
// base buckets under the register's write policy — the lane loop with plain
// stores for a single writer, else the CAS path — writing the per-update
// (result, old) witnesses into result/old. It is exactly equivalent to
// calling Apply for each element in order: per-bucket updates linearize,
// clamp events count once per saturating update, and the witnessed pairs
// are the committed read-modify-writes. idx, p1, p2, result, old must share
// a length.
func (r *Register) ApplyBatch(op StatefulOp, idx, p1, p2, result, old []uint32) {
	n := len(idx)
	if n == 0 {
		return
	}
	buckets := r.base()
	if r.single {
		r.applyBatchPlain(buckets, op, idx, p1, p2, result, old)
		return
	}
	bm := uint32(len(buckets) - 1)
	mask := r.mask
	var clamps uint64
	switch op {
	case OpCondAdd:
		for k := 0; k < n; k++ {
			b := &buckets[idx[k]&bm]
			p1m, p2m := p1[k]&mask, p2[k]&mask
			for {
				cur := atomic.LoadUint32(b)
				if cur >= p2m {
					result[k], old[k] = 0, cur
					break
				}
				next := cur + p1m
				clamped := false
				if next > mask || next < cur {
					next = mask
					clamped = true
				}
				if atomic.CompareAndSwapUint32(b, cur, next) {
					if clamped {
						clamps++
					}
					result[k], old[k] = next, cur
					break
				}
			}
		}
	case OpMax:
		for k := 0; k < n; k++ {
			b := &buckets[idx[k]&bm]
			v := p1[k] & mask
			for {
				cur := atomic.LoadUint32(b)
				if cur >= v {
					result[k], old[k] = 0, cur
					break
				}
				if atomic.CompareAndSwapUint32(b, cur, v) {
					result[k], old[k] = v, cur
					break
				}
			}
		}
	case OpAndOr:
		for k := 0; k < n; k++ {
			b := &buckets[idx[k]&bm]
			for {
				cur := atomic.LoadUint32(b)
				next := cur
				if p2[k] == 0 {
					next &= p1[k] & mask
				} else {
					next |= p1[k] & mask
				}
				if atomic.CompareAndSwapUint32(b, cur, next) {
					result[k], old[k] = next, cur
					break
				}
			}
		}
	case OpXor:
		for k := 0; k < n; k++ {
			b := &buckets[idx[k]&bm]
			for {
				cur := atomic.LoadUint32(b)
				next := cur ^ (p1[k] & mask)
				if atomic.CompareAndSwapUint32(b, cur, next) {
					result[k], old[k] = next, cur
					break
				}
			}
		}
	case OpNone:
		for k := 0; k < n; k++ {
			result[k], old[k] = 0, atomic.LoadUint32(&buckets[idx[k]&bm])
		}
	default:
		// Match Apply's contract for unknown ops.
		r.Apply(op, idx[0], p1[0], p2[0])
	}
	if clamps != 0 {
		atomic.AddUint64(&r.clamps, clamps)
	}
}

// ApplyAddBatch is the saturating-add specialization of ApplyBatch for the
// shape every frequency sketch compiles to: OpCondAdd with a constant
// increment and the threshold at the saturation bound. The caller must
// guarantee a full-width register (mask == ^0) — then the ceiling test
// `cur >= p2` can only fire at the saturated value, and the CAS loop
// collapses to one fetch-and-add per update, with a repair store on the
// (astronomically rare) 32-bit wrap that restores Apply's clamp semantics:
// first wrap clamps the bucket to ^0 and counts one clamp event; updates
// against an already-saturated bucket change nothing and count nothing.
// Single-writer streams are bit-identical to calling Apply per element;
// concurrent writers linearize per update exactly as the CAS path does
// (clamp accounting under a *concurrent* wrap may attribute events to a
// different interleaving — unreachable without 2^32 increments to one
// bucket between drains). A single-writer register runs the same
// arithmetic with plain loads and stores. It is ApplyAddCounts with every
// count 1.
func (r *Register) ApplyAddBatch(idx []uint32, p1 uint32) { r.applyAdd(idx, nil, p1) }

// ApplyAddCounts is ApplyAddBatch for combined updates: element k stands
// for cnt[k] consecutive saturating adds of p1 to bucket idx[k], applied as
// one fetch-and-add of cnt[k]·p1. Bucket values and clamp counts equal
// those of applying the cnt[k] updates one at a time: a run saturates at
// ^0 and counts one clamp iff the bucket was below ^0 and some step
// overshot it — a run whose steps land exactly on ^0 saturates silently,
// as the per-update path does. idx and cnt must share a length.
func (r *Register) ApplyAddCounts(idx, cnt []uint32, p1 uint32) { r.applyAdd(idx, cnt, p1) }

// applyAdd is the one body behind ApplyAddBatch (cnt nil: every count 1)
// and ApplyAddCounts on shared buckets; applyAddPlain is its single-writer
// form.
func (r *Register) applyAdd(idx, cnt []uint32, p1 uint32) {
	n := len(idx)
	if n == 0 || p1 == 0 {
		return // adding 0 changes nothing and never clamps
	}
	buckets := r.base()
	if r.single {
		r.applyAddPlain(idx, cnt, p1)
		return
	}
	bm := uint32(len(buckets) - 1)
	var clamps uint64
	for k := 0; k < n; k++ {
		b := &buckets[idx[k]&bm]
		d := uint64(p1)
		if cnt != nil {
			d *= uint64(cnt[k])
		}
		if d > math.MaxUint32 {
			// The run passes 2^32 from any start: the bucket ends at ^0.
			if overshoots(atomic.SwapUint32(b, ^uint32(0)), p1) {
				clamps++
			}
			continue
		}
		next := atomic.AddUint32(b, uint32(d))
		if next < uint32(d) { // wrapped past 2^32
			old := next - uint32(d)
			atomic.StoreUint32(b, ^uint32(0))
			if overshoots(old, p1) {
				clamps++
			}
		}
	}
	if clamps != 0 {
		atomic.AddUint64(&r.clamps, clamps)
	}
}

// applyAddPlain is applyAdd for a single writer: the same wrap and
// overshoots arithmetic on the base buckets, with one plain load and one
// plain store per element in place of the interlocked add and its repair
// store. applyAdd has backed the register.
func (r *Register) applyAddPlain(idx, cnt []uint32, p1 uint32) {
	buckets := r.buckets
	bm := uint32(len(buckets) - 1)
	n := len(idx)
	var clamps uint64
	for k := 0; k < n; k++ {
		i := idx[k] & bm
		d := uint64(p1)
		if cnt != nil {
			d *= uint64(cnt[k])
		}
		old := buckets[i]
		if d > math.MaxUint32 {
			// The run passes 2^32 from any start: the bucket ends at ^0.
			buckets[i] = ^uint32(0)
			if overshoots(old, p1) {
				clamps++
			}
			continue
		}
		next := old + uint32(d)
		if next < old { // wrapped past 2^32
			next = ^uint32(0)
			if overshoots(old, p1) {
				clamps++
			}
		}
		buckets[i] = next
	}
	if clamps != 0 {
		atomic.AddUint64(&r.clamps, clamps)
	}
}

// overshoots reports whether a run of +p1 steps from old, long enough to
// reach ^0, steps past it rather than onto it — the case in which the
// per-update path clamps and counts. A run landing exactly on ^0 (old
// itself included) counts nothing: the bucket is then saturated and every
// later step is a no-op.
func overshoots(old, p1 uint32) bool { return (^uint32(0)-old)%p1 != 0 }

// ShardApplyAddBatch is ApplyAddBatch against a private lane: a plain
// saturating-add loop with the increment hoisted, valid for any register
// width (the lane tolerates exactly one writer, so no fetch-and-add trick
// is needed). Accounting matches calling ShardApply(OpCondAdd, i, p1, ^0)
// per element: one access per update, one clamp per saturating update,
// saturated buckets untouched.
func (r *Register) ShardApplyAddBatch(shard int, idx []uint32, p1 uint32) {
	n := len(idx)
	if n == 0 {
		return
	}
	sh := &r.shards[shard]
	sh.accesses += uint64(n)
	lane := sh.lane
	bm := uint32(len(lane) - 1)
	mask := r.mask
	p1 &= mask
	var clamps uint64
	for k := 0; k < n; k++ {
		i := idx[k] & bm
		cur := lane[i]
		if cur >= mask {
			continue
		}
		next := cur + p1
		if next > mask || next < cur {
			next = mask
			clamps++
		}
		lane[i] = next
	}
	if clamps != 0 {
		atomic.AddUint64(&r.clamps, clamps)
	}
}

// ShardApplyBatch is ApplyBatch against the given worker's private lane
// with plain stores — the contention-free path for mergeable ops. Clamp
// events and the lane's access counter account exactly as if ShardApply
// had been called per element.
func (r *Register) ShardApplyBatch(shard int, op StatefulOp, idx, p1, p2, result, old []uint32) {
	if len(idx) == 0 {
		return
	}
	sh := &r.shards[shard]
	sh.accesses += uint64(len(idx))
	r.applyBatchPlain(sh.lane, op, idx, p1, p2, result, old)
}

// applyBatchPlain is the plain-store batch loop behind ShardApplyBatch (a
// lane) and the single-writer ApplyBatch (the base array). lane tolerates
// exactly one writer, so the loops skip the CAS entirely. idx is non-empty.
func (r *Register) applyBatchPlain(lane []uint32, op StatefulOp, idx, p1, p2, result, old []uint32) {
	n := len(idx)
	bm := uint32(len(lane) - 1)
	mask := r.mask
	var clamps uint64
	switch op {
	case OpCondAdd:
		for k := 0; k < n; k++ {
			i := idx[k] & bm
			cur := lane[i]
			if cur >= (p2[k] & mask) {
				result[k], old[k] = 0, cur
				continue
			}
			next := cur + (p1[k] & mask)
			if next > mask || next < cur {
				next = mask
				clamps++
			}
			lane[i] = next
			result[k], old[k] = next, cur
		}
	case OpMax:
		for k := 0; k < n; k++ {
			i := idx[k] & bm
			cur := lane[i]
			v := p1[k] & mask
			if cur >= v {
				result[k], old[k] = 0, cur
				continue
			}
			lane[i] = v
			result[k], old[k] = v, cur
		}
	case OpAndOr:
		for k := 0; k < n; k++ {
			i := idx[k] & bm
			cur := lane[i]
			next := cur
			if p2[k] == 0 {
				next &= p1[k] & mask
			} else {
				next |= p1[k] & mask
			}
			lane[i] = next
			result[k], old[k] = next, cur
		}
	case OpXor:
		for k := 0; k < n; k++ {
			i := idx[k] & bm
			cur := lane[i]
			next := cur ^ (p1[k] & mask)
			lane[i] = next
			result[k], old[k] = next, cur
		}
	case OpNone:
		for k := 0; k < n; k++ {
			result[k], old[k] = 0, lane[idx[k]&bm]
		}
	default:
		r.applyPlain(lane, op, idx[0], p1[0], p2[0])
	}
	if clamps != 0 {
		atomic.AddUint64(&r.clamps, clamps)
	}
}
