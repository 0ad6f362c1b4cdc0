package dataplane

import (
	"fmt"
	"sync/atomic"
)

// StatefulOp identifies one of the register actions a SALU can preload.
// FlyMon's reduced operation set (§3.1.2, Appendix A) needs only three,
// leaving one of the four hardware slots free for extensions (e.g. an XOR
// op for Odd Sketch, §6).
type StatefulOp uint8

const (
	// OpNone performs no update and returns 0.
	OpNone StatefulOp = iota
	// OpCondAdd adds p1 to the bucket if bucket < p2, returning the updated
	// value, else returns 0 (Appendix A, Operation 1). With p2 = MaxUint32
	// it degenerates to the unconditional ADD that CMS/MRAC need.
	OpCondAdd
	// OpMax sets the bucket to p1 if bucket < p1, returning the updated
	// value, else returns 0 (Appendix A, Operation 2).
	OpMax
	// OpAndOr performs bucket &= p1 when p2 == 0, else bucket |= p1,
	// returning the updated bucket (Appendix A, Operation 3).
	OpAndOr
	// OpXor toggles bucket bits: bucket ^= p1, returning the updated
	// bucket. This is the paper's reserved-slot extension (§6): with the
	// fourth SALU action slot, FlyMon can host Odd Sketch for traffic-set
	// similarity.
	OpXor
)

// String implements fmt.Stringer.
func (op StatefulOp) String() string {
	switch op {
	case OpNone:
		return "None"
	case OpCondAdd:
		return "Cond-ADD"
	case OpMax:
		return "MAX"
	case OpAndOr:
		return "AND-OR"
	case OpXor:
		return "XOR"
	default:
		return fmt.Sprintf("StatefulOp(%d)", uint8(op))
	}
}

// ReducedOperationSet is the set of stateful operations FlyMon preloads on
// every CMU register (§3.1.2); the fourth SALU slot stays free.
var ReducedOperationSet = []StatefulOp{OpCondAdd, OpMax, OpAndOr}

// ExtendedOperationSet adds the reserved-slot XOR extension (§6),
// exhausting the SALU's four action slots.
var ExtendedOperationSet = []StatefulOp{OpCondAdd, OpMax, OpAndOr, OpXor}

// Register models a SALU bound to a fixed-size stateful memory. The bucket
// count and bit width are fixed at compile time (they cannot change at
// runtime — the constraint that motivates FlyMon's address translation);
// the executed action is selected per packet.
//
// The register enforces the single-access-per-packet constraint indirectly:
// each stateful op touches exactly one bucket, and the CMU layer never
// issues two ops for one packet.
//
// Two update variants are offered, mirroring the two packet paths above:
//
//   - ApplySeq/Execute: plain read-modify-write for a single writer — the
//     interpretive pipeline path and single-threaded replays. Fastest; must
//     not run concurrently with anything else touching the register.
//   - Apply: a CAS loop per stateful op, safe for concurrent writers —
//     the snapshot fast path, modeling the independent pipes of a real
//     switch where each pipe's SALU performs its read-modify-write in one
//     hardware clock. Per-bucket updates are linearizable, but no atomicity
//     is promised across buckets (the d rows of a sketch may be observed
//     mid-update by a concurrent reader, exactly as on hardware).
//
// Read/ReadRange use atomic bucket access so control-plane readout can
// overlap the concurrent path. ClearRange does not: it is a bulk store for
// memory nothing else is touching (see its contract).
//
// A third, contention-free update path exists for FlyMon's mergeable
// operation set: EnableSharding gives every data-plane worker a private
// bucket lane, written with plain stores through ShardApply and reduced
// back into the shared buckets by DrainRange — see the sharding section
// below for the exactness argument and the synchronization contract.
type Register struct {
	buckets  []uint32
	bitWidth int
	mask     uint32

	// accesses counts single-writer base updates (ApplySeq/Execute). It is
	// striped away from the bucket/shard headers by the pads so that stats
	// traffic never shares a cache line with per-packet state; the sharded
	// path keeps its own per-lane counters (regShard.accesses) and
	// Accesses folds all stripes on read.
	_        [cacheLineBytes]byte
	accesses uint64
	_        [cacheLineBytes - 8]byte

	// clamps counts Cond-ADD saturation events: updates whose sum exceeded
	// the bucket width and were clamped to the mask. A saturating register
	// is the hardware signal that a task's buckets are too narrow (or its
	// traffic share too hot) — the telemetry plane exposes it per CMU.
	// Clamping is rare, so both update paths count it with one interlocked
	// add on its own padded line.
	clamps uint64
	_      [cacheLineBytes - 8]byte

	shards []regShard
	// drainedSeq is the ShardSeq value the last MarkDrained recorded; the
	// control plane's drain skips registers whose cursor has not moved.
	drainedSeq uint64
}

// cacheLineBytes is the assumed cache-line size used to pad shard state so
// lanes and counters of different workers never false-share.
const cacheLineBytes = 64

// lanePadBuckets is the head/tail padding (in buckets) around each shard's
// lane allocation: one full cache line keeps a lane's first and last
// buckets off lines owned by neighboring heap objects.
const lanePadBuckets = cacheLineBytes / 4

// regShard is one worker's private bucket lane plus its access-counter
// stripe. The struct is padded to a multiple of the cache line so the
// counters of adjacent shards (updated on every sharded op) never share a
// line.
type regShard struct {
	lane     []uint32 // len == register size; single-writer, plain access
	accesses uint64
	_        [cacheLineBytes*2 - 32]byte
}

// NewRegister allocates a register with the given bucket count (rounded up
// to a power of two, as hardware memories are) and bucket bit width (at
// most 32).
func NewRegister(buckets, bitWidth int) *Register {
	if bitWidth <= 0 || bitWidth > 32 {
		panic(fmt.Sprintf("dataplane: register bit width %d out of range (0,32]", bitWidth))
	}
	n := 1
	for n < buckets {
		n <<= 1
	}
	var mask uint32 = ^uint32(0)
	if bitWidth < 32 {
		mask = 1<<uint(bitWidth) - 1
	}
	return &Register{buckets: make([]uint32, n), bitWidth: bitWidth, mask: mask}
}

// Size returns the bucket count.
func (r *Register) Size() int { return len(r.buckets) }

// BitWidth returns the configured bucket width in bits.
func (r *Register) BitWidth() int { return r.bitWidth }

// MemoryBytes returns the stateful memory footprint (bit-packed).
func (r *Register) MemoryBytes() int { return len(r.buckets) * r.bitWidth / 8 }

// SRAMBlocks returns the SRAM blocks this register occupies.
func (r *Register) SRAMBlocks() int { return SRAMBlocksFor(len(r.buckets), r.bitWidth) }

// Accesses returns the number of plain-path update calls served
// (Execute/ApplySeq plus every shard's ShardApply ops), folding the
// per-stripe counters on read — stats collection pays the fan-in, not the
// packet path. The concurrent Apply path does not count: a second
// interlocked operation per update would double the cost of the packet hot
// path for a number the atomic pipeline packet counters already provide in
// aggregate. Like the plain update paths themselves, the fold is exact
// only once the writers have been quiesced (e.g. after a batch returns).
func (r *Register) Accesses() uint64 {
	n := atomic.LoadUint64(&r.accesses)
	for i := range r.shards {
		n += atomic.LoadUint64(&r.shards[i].accesses)
	}
	return n
}

// Execute performs one stateful operation on bucket index with parameters
// p1, p2, returning the operation's result. The index is wrapped into the
// bucket range; values saturate at the bucket width. Single-writer only —
// see ApplySeq.
func (r *Register) Execute(op StatefulOp, index uint32, p1, p2 uint32) uint32 {
	result, _ := r.ApplySeq(op, index, p1, p2)
	return result
}

// ApplySeq performs one stateful operation with plain (non-atomic) bucket
// access, returning the result and the value read before updating. It is
// the single-writer fast path: correct and cheapest when exactly one
// goroutine updates the register, as on the interpretive pipeline path.
// Never mix concurrently with Apply or with control-plane readout.
func (r *Register) ApplySeq(op StatefulOp, index uint32, p1, p2 uint32) (result, old uint32) {
	r.accesses++
	return r.applyPlain(r.buckets, op, index, p1, p2)
}

// applyPlain is the shared plain (non-atomic) read-modify-write kernel
// behind ApplySeq and ShardApply; buckets selects the base array or a lane.
func (r *Register) applyPlain(buckets []uint32, op StatefulOp, index, p1, p2 uint32) (result, old uint32) {
	mask := r.mask
	i := index & uint32(len(buckets)-1)
	cur := buckets[i]
	switch op {
	case OpCondAdd:
		if cur >= (p2 & mask) {
			return 0, cur
		}
		next := cur + (p1 & mask)
		if next > mask || next < cur {
			next = mask
			atomic.AddUint64(&r.clamps, 1)
		}
		buckets[i] = next
		return next, cur
	case OpMax:
		v := p1 & mask
		if cur >= v {
			return 0, cur
		}
		buckets[i] = v
		return v, cur
	case OpAndOr:
		next := cur
		if p2 == 0 {
			next &= p1 & mask
		} else {
			next |= p1 & mask
		}
		buckets[i] = next
		return next, cur
	case OpXor:
		next := cur ^ (p1 & mask)
		buckets[i] = next
		return next, cur
	case OpNone:
		return 0, cur
	default:
		panic(fmt.Sprintf("dataplane: unknown stateful op %d", op))
	}
}

// Apply performs one stateful operation like ApplySeq but with a CAS loop
// per op, making it safe for concurrent writers. The (result, old) pair is
// consistent — it is the witnessed read-modify-write, even under
// concurrency, which is what DetectNew-style predicates depend on. Apply
// does not bump the Accesses counter (see Accesses).
func (r *Register) Apply(op StatefulOp, index uint32, p1, p2 uint32) (result, old uint32) {
	b := &r.buckets[index&uint32(len(r.buckets)-1)]
	switch op {
	case OpCondAdd:
		p1m, p2m := p1&r.mask, p2&r.mask
		for {
			cur := atomic.LoadUint32(b)
			if cur >= p2m {
				return 0, cur
			}
			next := cur + p1m
			clamped := false
			if next > r.mask || next < cur {
				next = r.mask
				clamped = true
			}
			if atomic.CompareAndSwapUint32(b, cur, next) {
				if clamped {
					atomic.AddUint64(&r.clamps, 1)
				}
				return next, cur
			}
		}
	case OpMax:
		v := p1 & r.mask
		for {
			cur := atomic.LoadUint32(b)
			if cur >= v {
				return 0, cur
			}
			if atomic.CompareAndSwapUint32(b, cur, v) {
				return v, cur
			}
		}
	case OpAndOr:
		for {
			cur := atomic.LoadUint32(b)
			next := cur
			if p2 == 0 {
				next &= p1 & r.mask
			} else {
				next |= p1 & r.mask
			}
			if atomic.CompareAndSwapUint32(b, cur, next) {
				return next, cur
			}
		}
	case OpXor:
		for {
			cur := atomic.LoadUint32(b)
			next := cur ^ (p1 & r.mask)
			if atomic.CompareAndSwapUint32(b, cur, next) {
				return next, cur
			}
		}
	case OpNone:
		return 0, atomic.LoadUint32(b)
	default:
		panic(fmt.Sprintf("dataplane: unknown stateful op %d", op))
	}
}

// Clamps returns the number of Cond-ADD saturation clamp events observed on
// either update path (lane drains fold through Apply, so drain-induced
// saturation counts too).
func (r *Register) Clamps() uint64 { return atomic.LoadUint64(&r.clamps) }

// Occupancy returns the number of non-zero base buckets — the register's
// fill gauge. Lane state is not scanned: drain the lanes first for an exact
// figure on a sharded register (the controller's telemetry fold does).
// Bucket loads are atomic, so Occupancy may overlap concurrent writers; the
// result is then a point-in-time approximation, as with any live gauge.
func (r *Register) Occupancy() int {
	n := 0
	for i := range r.buckets {
		if atomic.LoadUint32(&r.buckets[i]) != 0 {
			n++
		}
	}
	return n
}

// Read returns bucket i without counting a data-plane access (control-plane
// register readout).
func (r *Register) Read(i uint32) uint32 {
	return atomic.LoadUint32(&r.buckets[i&uint32(len(r.buckets)-1)])
}

// ReadRange copies buckets [lo, lo+n) into a fresh slice (control-plane
// readout of one task's partition).
func (r *Register) ReadRange(lo, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = atomic.LoadUint32(&r.buckets[lo+i])
	}
	return out
}

// ClearRange zeroes buckets [lo, lo+n) of the base array and of every shard
// lane (a recycled partition must not resurrect a removed task's undrained
// lane state) with one bulk clear each. The stores are plain: the caller
// guarantees no concurrent access to the range, on any path — either the
// range is quiescent (its rules are unlinked and every reader that could
// still hold them has finished: the control plane's grace period) or the
// caller excludes the packet path for the duration. Other ranges of the
// same register may be in full use meanwhile.
func (r *Register) ClearRange(lo, n int) {
	clear(r.buckets[lo : lo+n])
	for s := range r.shards {
		clear(r.shards[s].lane[lo : lo+n])
	}
}

// Reset zeroes the whole register.
func (r *Register) Reset() { r.ClearRange(0, len(r.buckets)) }

// --- Sharded state: private per-worker lanes + mergeable-op reduction ---
//
// FlyMon's reduced operation set is not just expressive — it is mergeable:
// saturating sums add, maxes max, OR-bitmaps OR, XOR parities XOR. That
// property lets a register split its write traffic across private
// per-worker lanes (no CAS, no shared cache lines) and reduce them back on
// the query path, exactly like the per-pipe SALU copies of a multi-pipe
// switch ASIC whose control plane folds the pipes at readout.
//
// Exactness. For each mergeable op, folding per-lane results with
// MergeValues is bit-identical to having applied the whole update stream
// sequentially against one bucket, for any partition of the stream:
//
//   - Cond-ADD with its threshold at the saturation bound min(mask, Σpᵢ):
//     if no lane saturates the fold sums exactly; if any lane saturates
//     then Σ lanes ≥ mask and the saturating fold clamps to mask, which is
//     also the sequential result. (A threshold *below* the bound is a real
//     condition on global state and is NOT mergeable — callers must keep
//     such rules on the CAS path.)
//   - MAX: max over lane maxima = max over the stream; 0 is the identity.
//   - AND-OR, OR branch: OR over lane bitmaps = OR over the stream; 0 is
//     the identity. (The AND branch starts from the bucket's current
//     value, so it is not mergeable.)
//   - XOR: XOR is an abelian group; lanes fold exactly, 0 is the identity.
//
// Synchronization contract. A lane is single-writer (the owning worker)
// with plain loads/stores. DrainRange reads and writes lanes with plain
// access too, so the caller must exclude sharded writers of the range around
// it (the control plane holds a gate that pool workers take in shared mode
// around each span, or drains a range it has already retired). The fold
// into the base buckets goes through the CAS path, so it may safely overlap
// single-packet CAS writers and atomic readers. ClearRange is stricter: no
// access of any kind to the range may overlap it.

// EnableSharding allocates n private bucket lanes (one per worker). It is
// idempotent for the same n; changing the lane count discards the current
// lanes, so callers must drain first. n <= 1 disables sharding. Lanes are
// padded so neighboring allocations never share the first/last cache line.
func (r *Register) EnableSharding(n int) {
	if n <= 1 {
		r.shards = nil
		r.drainedSeq = 0
		return
	}
	if len(r.shards) == n {
		return
	}
	r.shards = make([]regShard, n)
	r.drainedSeq = 0
	size := len(r.buckets)
	for i := range r.shards {
		arr := make([]uint32, size+2*lanePadBuckets)
		r.shards[i].lane = arr[lanePadBuckets : lanePadBuckets+size : lanePadBuckets+size]
	}
}

// Shards returns the number of private lanes (0 = sharding disabled).
func (r *Register) Shards() int { return len(r.shards) }

// Mask returns the bucket-width mask (the saturation bound).
func (r *Register) Mask() uint32 { return r.mask }

// ShardApply performs one stateful operation on the given worker's private
// lane with plain bucket access — the contention-free fast path for
// mergeable ops. Each lane tolerates exactly one writer; distinct shards
// never synchronize. The (result, old) pair is lane-local: callers must
// not feed it into cross-worker predicates (the compiler only routes rules
// here when nothing consumes the result bus).
func (r *Register) ShardApply(shard int, op StatefulOp, index, p1, p2 uint32) (result, old uint32) {
	sh := &r.shards[shard]
	sh.accesses++
	return r.applyPlain(sh.lane, op, index, p1, p2)
}

// MergeValues folds two bucket values under a mergeable op's reduction:
// saturating sum for Cond-ADD, max for MAX, OR for AND-OR, XOR for XOR.
// OpNone returns a unchanged.
func MergeValues(op StatefulOp, mask, a, b uint32) uint32 {
	switch op {
	case OpCondAdd:
		s := (a & mask) + (b & mask)
		if s > mask || s < a&mask {
			s = mask
		}
		return s
	case OpMax:
		if b&mask > a&mask {
			return b & mask
		}
		return a & mask
	case OpAndOr:
		return (a | b) & mask
	case OpXor:
		return (a ^ b) & mask
	case OpNone:
		return a
	default:
		panic(fmt.Sprintf("dataplane: unknown stateful op %d", op))
	}
}

// ReadMerged returns bucket i reduced across the shared buckets and every
// lane under op's merge function, without draining. Lane loads are plain:
// quiesce sharded writers first.
func (r *Register) ReadMerged(op StatefulOp, i uint32) uint32 {
	i &= uint32(len(r.buckets) - 1)
	v := atomic.LoadUint32(&r.buckets[i])
	for s := range r.shards {
		v = MergeValues(op, r.mask, v, r.shards[s].lane[i])
	}
	return v
}

// ReadRangeMerged is ReadRange reduced across lanes under op.
func (r *Register) ReadRangeMerged(op StatefulOp, lo, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.ReadMerged(op, uint32(lo+i))
	}
	return out
}

// DrainRange folds every lane's buckets in [lo, lo+n) into the shared
// buckets under op's merge function and zeroes the drained lane entries,
// returning the number of nonzero lane buckets folded. The fold lands
// through the CAS path (Apply), so concurrent CAS writers and atomic
// readers stay safe; lane access is plain, so sharded writers must be
// quiesced. Zero is every merge's identity, which makes draining a range
// whose rules never sharded a no-op.
func (r *Register) DrainRange(op StatefulOp, lo, n int) int {
	merged := 0
	for s := range r.shards {
		lane := r.shards[s].lane
		for i := lo; i < lo+n; i++ {
			v := lane[i]
			if v == 0 {
				continue
			}
			lane[i] = 0
			merged++
			switch op {
			case OpCondAdd:
				r.Apply(OpCondAdd, uint32(i), v, ^uint32(0))
			case OpMax:
				r.Apply(OpMax, uint32(i), v, 0)
			case OpAndOr:
				r.Apply(OpAndOr, uint32(i), v, 1)
			case OpXor:
				r.Apply(OpXor, uint32(i), v, 0)
			}
		}
	}
	return merged
}

// ShardSeq returns the total sharded ops applied so far — a cheap
// dirtiness cursor: a register whose ShardSeq has not moved since its last
// drain has nothing new to fold, letting query paths skip the lane scan.
// Exact only with sharded writers quiesced, like every lane read.
func (r *Register) ShardSeq() uint64 {
	var n uint64
	for i := range r.shards {
		n += atomic.LoadUint64(&r.shards[i].accesses)
	}
	return n
}

// ShardsDirty reports whether sharded ops have landed since MarkDrained.
func (r *Register) ShardsDirty() bool {
	return len(r.shards) > 0 && r.ShardSeq() != atomic.LoadUint64(&r.drainedSeq)
}

// MarkDrained records the current ShardSeq as fully folded. Call after
// draining every partition of the register.
func (r *Register) MarkDrained() { atomic.StoreUint64(&r.drainedSeq, r.ShardSeq()) }
