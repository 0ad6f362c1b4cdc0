package core

import (
	"math/bits"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// This file is the snapshot compiler's back end: it flattens a Rule — an
// interpretive structure full of wildcard conventions and method dispatch —
// into a compiledRule, the dense, branch-poor program the data-plane fast
// path executes. Everything resolvable at Compile time is resolved here:
// filters are lowered to one two-word mask and value, key selectors are
// rewritten against the snapshot's deduplicated hash slots, address
// translation is reduced to one shift or one mask, and constant parameters
// are folded.
// The per-packet work that remains is an indexed dispatch over flat struct
// fields, which is what lets Snapshot.Process run allocation-free and is as
// close as software gets to the fixed per-packet work of the Tofino
// pipeline the paper measures.

// compiledMatch is a pre-resolved packet.Filter: one mask/value pair over
// the two key words mmtrace.FrameView.KeyWords packs (groupKeyMask's
// layout) — source and destination address in the first; source port,
// destination port and protocol at bits 0, 16 and 32 of the second. A
// prefix lowers to its top bits, an exact field to all of its bits, and a
// wildcard to none, so every filter is the same masked compare of two
// words: from a packet (matches), a record (matchesFrame) or a chunk's
// grouping key (matchesKey). The zero mask matches everything.
type compiledMatch struct {
	mask, val [2]uint64
}

// prefixMaskVal lowers a CIDR prefix to (mask, value); a zero prefix
// becomes (0, 0), which matches everything under mask-and-compare.
func prefixMaskVal(pr packet.Prefix) (mask, val uint32) {
	if pr.Bits <= 0 {
		return 0, 0
	}
	bits := pr.Bits
	if bits > 32 {
		bits = 32
	}
	mask = ^uint32(0) << (32 - bits)
	return mask, pr.Value & mask
}

// compileMatch lowers a filter to its two-word mask and value.
func compileMatch(f packet.Filter) compiledMatch {
	var cm compiledMatch
	srcMask, srcVal := prefixMaskVal(f.SrcPrefix)
	dstMask, dstVal := prefixMaskVal(f.DstPrefix)
	cm.mask[0] = uint64(srcMask) | uint64(dstMask)<<32
	cm.val[0] = uint64(srcVal) | uint64(dstVal)<<32
	if f.SrcPort != 0 {
		cm.mask[1] |= 0xffff
		cm.val[1] |= uint64(f.SrcPort)
	}
	if f.DstPort != 0 {
		cm.mask[1] |= 0xffff << 16
		cm.val[1] |= uint64(f.DstPort) << 16
	}
	if f.Proto != 0 {
		cm.mask[1] |= 0xff << 32
		cm.val[1] |= uint64(f.Proto) << 32
	}
	return cm
}

// all reports whether the filter is the zero Filter, matching every packet.
func (cm *compiledMatch) all() bool { return cm.mask == [2]uint64{} }

// matchesKey is the one comparison every form runs: the key words w0, w1
// under the filter's mask equal its value.
func (cm *compiledMatch) matchesKey(w0, w1 uint64) bool {
	return w0&cm.mask[0] == cm.val[0] && w1&cm.mask[1] == cm.val[1]
}

// matches reports whether p belongs to the compiled filter's traffic
// slice; semantics are identical to packet.Filter.Matches.
func (cm *compiledMatch) matches(p *packet.Packet) bool {
	return cm.matchesKey(uint64(p.SrcIP)|uint64(p.DstIP)<<32,
		uint64(p.SrcPort)|uint64(p.DstPort)<<16|uint64(p.Proto)<<32)
}

// compiledSel is a Selector rewritten against the snapshot's deduplicated
// digest slots: the group-local unit indices are resolved to indices into
// ProcCtx.hashes (so the per-group key-copy loop disappears), and the
// rotation/width arithmetic is folded to one rotate and one mask.
type compiledSel struct {
	a, b int32  // ProcCtx.hashes slots; -1 contributes 0
	rot  uint32 // right rotation, in [0, 32)
	mask uint32 // width mask (^0 = full 32 bits)
}

// compileSel resolves s against a group's unit→hash-slot map.
func compileSel(s Selector, unitHash []int) compiledSel {
	cs := compiledSel{a: -1, b: -1, mask: ^uint32(0)}
	if s.UnitA >= 0 && s.UnitA < len(unitHash) && unitHash[s.UnitA] >= 0 {
		cs.a = int32(unitHash[s.UnitA])
	}
	if s.UnitB >= 0 && s.UnitB < len(unitHash) && unitHash[s.UnitB] >= 0 {
		cs.b = int32(unitHash[s.UnitB])
	}
	lo := s.Lo % 32
	if lo < 0 {
		lo += 32
	}
	cs.rot = uint32(lo)
	if s.Width > 0 && s.Width < 32 {
		cs.mask = 1<<uint(s.Width) - 1
	}
	return cs
}

// resolve extracts the selected value from the packet's digest cache.
func (cs *compiledSel) resolve(hashes []uint32) uint32 {
	var v uint32
	if cs.a >= 0 {
		v = hashes[cs.a]
	}
	if cs.b >= 0 {
		v ^= hashes[cs.b]
	}
	if cs.rot != 0 {
		v = v>>cs.rot | v<<(32-cs.rot)
	}
	return v & cs.mask
}

// compiledParam is a ParamSource with its constants folded (ParamMaxValue
// becomes a ParamConst of ^0) and its selector compiled.
type compiledParam struct {
	kind  ParamKind
	value uint32
	sel   compiledSel
}

func compileParam(ps ParamSource, unitHash []int) compiledParam {
	switch ps.Kind {
	case ParamMaxValue:
		return compiledParam{kind: ParamConst, value: ^uint32(0)}
	case ParamConst:
		return compiledParam{kind: ParamConst, value: ps.Value}
	case ParamCompressedKey:
		return compiledParam{kind: ParamCompressedKey, sel: compileSel(ps.Sel, unitHash)}
	default:
		return compiledParam{kind: ps.Kind}
	}
}

func (cp *compiledParam) resolve(ctx *Context, hashes []uint32) uint32 {
	switch cp.kind {
	case ParamConst:
		return cp.value
	case ParamPacketSize:
		return ctx.Pkt.Size
	case ParamTimestampUs:
		return uint32(ctx.Pkt.TimestampNs / 1000)
	case ParamQueueLength:
		return ctx.Pkt.QueueLength
	case ParamQueueDelay:
		return ctx.Pkt.QueueDelayNs
	case ParamCompressedKey:
		return cp.sel.resolve(hashes)
	case ParamPrevResult:
		return ctx.PrevResult
	case ParamPrevOld:
		return ctx.PrevOld
	default:
		return 0
	}
}

// compiledRule is one rule of a snapCMU's program: every field the packet
// loop touches, flat and pre-resolved. Execution order matches
// executeRule's exactly, so the compiled and interpretive paths stay
// bit-for-bit equivalent.
type compiledRule struct {
	match compiledMatch
	key   compiledSel
	p1    compiledParam
	p2    compiledParam
	prep  Transform
	op    dataplane.StatefulOp
	reg   *dataplane.Register

	// Address translation, reduced to `base + addr>>shift` (shift-based:
	// high bits) or `base + addr&mask` (TCAM-based: low bits).
	base      uint32
	addrShift uint32
	addrMask  uint32
	shifted   bool

	prob      float64
	probGated bool // 0 < prob < 1
	hasPrep   bool // prep.Kind != TransformNone
	chainMin  bool
	detectNew bool

	// The plan's (planRule): the column-stage kernel, whether witnesses go
	// back onto the result bus, and whether a lane-owning worker applies
	// the rule to its private lane (mergeable.go), not the shared bucket.
	kernel  kernel
	scatter bool
	sharded bool

	// teleSlot indexes the worker's pending-hit accumulator (Context.Tele)
	// for this rule, or -1 when the rule needs no per-execution count:
	// telemetry is off, or the compiler proved the rule executes for every
	// packet reaching its pass (first in program, match-all, unsampled) and
	// derives its hits from the snapshot packet counter instead.
	teleSlot int32
}

// compileRule lowers one enabled rule against its CMU's register and its
// group's unit→hash-slot map: match, selectors, parameters and address
// translation. How it runs is the plan's (planRule).
func compileRule(r *Rule, reg *dataplane.Register, unitHash []int) compiledRule {
	cr := compiledRule{
		teleSlot:  -1,
		match:     compileMatch(r.Filter),
		key:       compileSel(r.Key, unitHash),
		p1:        compileParam(r.P1, unitHash),
		p2:        compileParam(r.P2, unitHash),
		prep:      r.Prep,
		op:        r.Op,
		reg:       reg,
		base:      uint32(r.Mem.Base),
		prob:      r.Prob,
		probGated: r.Prob > 0 && r.Prob < 1,
		hasPrep:   r.Prep.Kind != TransformNone,
		chainMin:  r.ChainMin,
		detectNew: r.DetectNew,
	}
	n := uint32(r.Mem.Buckets)
	switch {
	case n == 0:
		// Degenerate range: both methods collapse to the base address.
		cr.shifted = true
		cr.addrShift = 32 // addr >> 32 == 0 for uint32 in Go
	case r.Translation == ShiftBased:
		cr.shifted = true
		cr.addrShift = uint32(32 - bits.TrailingZeros32(n))
	default:
		cr.addrMask = n - 1
	}
	return cr
}

// exec runs the rule's initialization, preparation, and stateful operation
// — the compiled counterpart of executeRule. The register update goes
// through Apply under the register's write policy (plain stores for a
// single writer, CAS on shared buckets), except for mergeable rules
// executed by a lane-owning worker, which take the plain sharded path and
// are reduced at readout.
func (r *compiledRule) exec(ctx *Context, hashes []uint32) {
	if r.teleSlot >= 0 {
		ctx.Tele[r.teleSlot]++
	}
	addr := r.key.resolve(hashes)
	var index uint32
	if r.shifted {
		index = r.base + addr>>r.addrShift
	} else {
		index = r.base + addr&r.addrMask
	}
	p1 := r.p1.resolve(ctx, hashes)
	p2 := r.p2.resolve(ctx, hashes)
	if r.chainMin {
		p2 = ctx.RunningMin
	}
	if r.hasPrep {
		var drop bool
		p1, p2, drop = r.prep.apply(ctx, p1, p2)
		if drop {
			ctx.PrepDrops++
			return
		}
	}
	var result, old uint32
	if r.sharded && ctx.Shard >= 0 {
		result, old = r.reg.ShardApply(int(ctx.Shard), r.op, index, p1, p2)
	} else {
		result, old = r.reg.Apply(r.op, index, p1, p2)
	}
	ctx.PrevResult = result
	ctx.PrevOld = old
	if r.chainMin && result > 0 && result < ctx.RunningMin {
		ctx.RunningMin = result
	}
	if r.detectNew {
		ctx.PrevNewFlow = old&p1 == 0
	}
}
