package core

import "flymon/internal/dataplane"

// This file is the compiler's mergeability analysis: the Compile-time
// decision of whether a rule's stateful operation may run on a private
// per-worker register lane (dataplane.ShardApply, plain stores) and be
// reduced at query time, or must stay on the shared CAS path. The same
// analysis decides the op a fleet merges a task's switch readouts under
// (MergeOp). The analysis
// is conservative — a rule shards only when lane-then-merge is provably
// bit-identical to sequential execution AND nothing in the snapshot can
// observe the lane-local result bus — so correctness never depends on the
// execution mode.

// busConsumer reports whether the rule reads the cross-CMU result bus
// (PrevResult/PrevOld/PrevNewFlow/RunningMin). Under sharding a producer's
// bus values are lane-local — a Bloom CMU would classify a flow as "new"
// once per worker — so one consumer anywhere in the snapshot pins every
// rule to the shared CAS path, where the bus carries globally-witnessed
// read-modify-writes.
func busConsumer(r *Rule) bool {
	if r.ChainMin || r.Prep.Kind == TransformIntervalSub {
		return true
	}
	switch r.P1.Kind {
	case ParamPrevResult, ParamPrevOld:
		return true
	}
	switch r.P2.Kind {
	case ParamPrevResult, ParamPrevOld:
		return true
	}
	return false
}

// constP2 resolves the rule's second parameter to a compile-time constant,
// reporting false for dynamic sources. ParamMaxValue folds to ^0 exactly
// as compileParam does.
func constP2(r *Rule) (uint32, bool) {
	switch r.P2.Kind {
	case ParamConst:
		return r.P2.Value, true
	case ParamMaxValue:
		return ^uint32(0), true
	default:
		return 0, false
	}
}

// shardEligible reports whether the rule's op+condition is exactly
// mergeable (dataplane.MergeValues' exactness argument), given the bucket
// mask of the register it targets:
//
//   - Cond-ADD merges iff its threshold is the saturation bound (p2&mask
//     == mask, i.e. the unconditional ADD every frequency sketch uses) and
//     the preparation stage cannot rewrite p2 below it. A lower threshold
//     conditions the update on global state a lane cannot see.
//   - MAX always merges: the lane maxima's max is the stream's max.
//   - AND-OR merges only when the OR branch is guaranteed — p2 a nonzero
//     constant, or a transform (coupon, bit-select) that forces p2=1. The
//     AND branch reads the bucket's current global value.
//   - XOR always merges (abelian group, identity 0).
//
// Rules that produce bus state consumed elsewhere are excluded by the
// planner's snapshot-wide busConsumer scan; DetectNew and ChainMin
// producers are rejected here as well since their semantics are defined in
// terms of globally-witnessed old values.
func shardEligible(r *Rule, mask uint32) bool {
	if r.ChainMin || r.DetectNew || busConsumer(r) {
		return false
	}
	switch r.Op {
	case dataplane.OpMax, dataplane.OpXor:
		return true
	case dataplane.OpCondAdd:
		p2, ok := constP2(r)
		if !ok || p2&mask != mask {
			return false
		}
		// The preparation stage must leave p2 at the bound: coupon and
		// bit-select rewrite p2 to 1, turning the add back into a
		// threshold condition.
		switch r.Prep.Kind {
		case TransformNone, TransformLZRank, TransformZeroGate:
			return true
		}
		return false
	case dataplane.OpAndOr:
		switch r.Prep.Kind {
		case TransformCoupon, TransformBitSelect:
			return true // both force p2 = 1: always the OR branch
		case TransformNone:
			p2, ok := constP2(r)
			return ok && p2 != 0
		}
		return false
	}
	return false
}

// MergeOp returns the one stateful op under which copies of a task's
// registers — its rules at locs, on as many switches as hold a copy —
// combine exactly: every rule passes shardEligible (a switch's copy merges
// like a worker's lane) and all run the same op. OpNone when they do not:
// a rule conditions on or consumes state another copy cannot see, or the
// rules disagree on the op.
func MergeOp(locs []TaskLocation) dataplane.StatefulOp {
	op := dataplane.OpNone
	for i, l := range locs {
		if (i > 0 && l.Rule.Op != op) || !shardEligible(l.Rule, l.Group.CMU(l.CMU).Register().Mask()) {
			return dataplane.OpNone
		}
		op = l.Rule.Op
	}
	return op
}

// EnableSharding allocates n private lanes on every register of the
// pipeline (regular and spliced groups), arming the sharded execution mode
// for the next Compile. n <= 1 disables it. Call before traffic, or
// quiesced with shards drained.
func (pl *Pipeline) EnableSharding(n int) {
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			g.CMU(i).Register().EnableSharding(n)
		}
	}
}

// SetSingleWriter sets the write policy of every register of the pipeline
// (dataplane.Register.SetSingleWriter): on when at most one goroutine runs
// the packet path at a time and no reader overlaps it, so every update is a
// plain load and store. Call before traffic.
func (pl *Pipeline) SetSingleWriter(on bool) {
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			g.CMU(i).Register().SetSingleWriter(on)
		}
	}
}

// DrainShards folds every register's per-worker lanes into the shared
// buckets, partition by partition under each rule's merge op, and returns
// the number of nonzero lane buckets folded. Registers whose shard
// cursor has not moved since their last drain are skipped, so repeated
// query-path drains between batches cost one counter load per register.
// Sharded writers must be quiesced by the caller (the controller holds its
// batch gate); the fold itself is CAS-safe against single-packet writers
// and atomic readers. Frozen rules are drained too — a frozen partition
// must expose its full pre-freeze state to readout.
func (pl *Pipeline) DrainShards() int {
	total := 0
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			cmu := g.CMU(i)
			reg := cmu.Register()
			if !reg.ShardsDirty() {
				continue
			}
			for _, r := range cmu.Rules() {
				total += reg.DrainRange(r.Op, r.Mem.Base, r.Mem.Buckets)
			}
			reg.MarkDrained()
		}
	}
	return total
}
