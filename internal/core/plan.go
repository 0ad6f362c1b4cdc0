package core

import (
	"slices"

	"flymon/internal/dataplane"
)

// This file is the planner: the one place that decides how the frame
// engine runs a snapshot. Recompile takes the plan's inputs from the group
// scan (newPlanInputs), each group compiled under them gives every CMU a
// stage (cmuStage) and every enabled rule a kernel, a witness scatter and
// a lane (planRule), and Recompile lists the CMUs by stage. The engine
// dispatches from those; per chunk it reads only the lane and grouping.
//
//	stage         runs in                  because
//	stageColumn   the column stage         none of the below
//	stageSampled  the packet-order pass    the CMU holds an enabled sampled rule
//	stageBus      the packet-order pass    a main-pass rule is sampled and the bus is read
//	stageSpliced  the recirculated pass    the CMU sits in a spliced group
//
//	kernel           column-stage rule                              updates
//	kernelAddCounts  constant saturating add, full width, no prep   witness-free; count·p1 per group
//	kernelCombined   MAX or AND-OR (constant p2), uniform p1, p2    one per group
//	kernelFoldedP1   the same with metadata p1, no prep             one per group, p1 folded
//	kernelGeneric    any other                                      one per frame
//
// Coins and the mirror decision advance in packet order. The bus carries
// per-packet state through the CMUs in pipeline order, so a snapshot that
// reads it runs every main-pass CMU there once one is sampled, and plans
// only generic kernels, no lanes; a bus-quiet one scatters no witness.
// Per-group updates run in a grouped chunk for a match-all rule at program
// position 0 and for the rules of a CMU that selects by group
// (plan.selection, taken per chunk against the snapshot's key mask).
type (
	stage  uint8
	kernel uint8
)

const (
	stageColumn stage = iota
	stageSampled
	stageBus
	stageSpliced
)

const (
	kernelGeneric kernel = iota
	kernelAddCounts
	kernelCombined
	kernelFoldedP1
)

// planInputs are the snapshot-wide facts the plan depends on: no enabled
// rule reads the bus (busConsumer); the bus is read and a main-pass rule
// sampled. A group's program is reused only while they hold.
type planInputs struct{ quiet, orderBus bool }

// newPlanInputs takes the plan's inputs from the scanned groups progs, the
// first nReg regular. One enabled bus consumer anywhere (SuMax's min chain,
// Counter Braids' PrevResult, max-interval's IntervalSub) reads the bus.
func newPlanInputs(progs []*groupProg, nReg int) planInputs {
	in, sampledMain := planInputs{quiet: true}, false
	for gi, p := range progs {
		in.quiet = in.quiet && !p.busConsumer
		sampledMain = sampledMain || gi < nReg && p.probGated
	}
	in.orderBus = !in.quiet && sampledMain
	return in
}

// plan is a snapshot's plan: its live CMUs by stage in pipeline order
// (column stage, packet-order pass, recirculated pass), the filters of the
// last two's rules (Snapshot.splicedMatch is the tail), and the grouping
// key, unused when the union of masks reads the timestamp (groupKeyMask).
type plan struct {
	planInputs
	column, ordered, spliced []snapCMU
	frameMatch               []compiledMatch
	keyMask                  [2]uint64
	grouped                  bool
}

// selection is how cmuFrames picks a column CMU's frames in a chunk.
type selection uint8

const (
	// selectAll: a match-all rule at program position 0 wins every frame;
	// no selection pass runs.
	selectAll selection = iota
	// selectGroups: every filter of the CMU reads only bits of the grouping
	// key, so frames of one group share every verdict and first-match runs
	// once per group, over the groups' keys.
	selectGroups
	// selectUngrouped: the chunk is not grouped (plan.grouped); first-match
	// runs once per frame.
	selectUngrouped
	// selectOutsideKey: a filter reads a bit outside the grouping key, where
	// frames of one group may differ; first-match runs once per frame.
	selectOutsideKey
)

// selection decides how column CMU sc selects in a chunk. The verdict
// depends on the snapshot-wide key mask, so it is taken per chunk from the
// CMU's filter union, never frozen into a group program Recompile reuses.
func (p *plan) selection(sc *snapCMU) selection {
	switch {
	case sc.prog[0].match.all():
		return selectAll
	case !p.grouped:
		return selectUngrouped
	case sc.filter[0]&^p.keyMask[0]|sc.filter[1]&^p.keyMask[1] != 0:
		return selectOutsideKey
	}
	return selectGroups
}

// cmuStage plans CMU c's stage, c in a spliced group or not.
func (in planInputs) cmuStage(c *CMU, spliced bool) stage {
	switch {
	case spliced:
		return stageSpliced
	case slices.ContainsFunc(c.rules, func(r *Rule) bool { return !r.Disabled && r.Prob > 0 && r.Prob < 1 }):
		return stageSampled
	case in.orderBus:
		return stageBus
	}
	return stageColumn
}

// planRule plans enabled rule r, lowered to cr in a CMU of stage st: its
// kernel, witness scatter and lane routing.
func (in planInputs) planRule(cr *compiledRule, r *Rule, st stage) {
	mask := cr.reg.Mask()
	cr.kernel, cr.scatter = kernelGeneric, !in.quiet
	cr.sharded = in.quiet && cr.reg.Shards() > 0 && shardEligible(r, mask)
	if !in.quiet || st != stageColumn {
		return
	}
	uniform := func(k ParamKind) bool { return k == ParamConst || k == ParamCompressedKey }
	idem := cr.op == dataplane.OpMax && uniform(cr.p2.kind) || cr.op == dataplane.OpAndOr && cr.p2.kind == ParamConst
	metaP1 := !cr.hasPrep && slices.Contains([]ParamKind{ParamPacketSize, ParamTimestampUs, ParamQueueLength, ParamQueueDelay}, cr.p1.kind)
	switch {
	case cr.op == dataplane.OpCondAdd && mask == ^uint32(0) &&
		!cr.hasPrep && !cr.chainMin && !cr.detectNew &&
		cr.p1.kind == ParamConst && cr.p2.kind == ParamConst && cr.p2.value == mask:
		cr.kernel = kernelAddCounts
	case idem && uniform(cr.p1.kind):
		cr.kernel = kernelCombined
	case idem && metaP1:
		cr.kernel = kernelFoldedP1
	}
}
