// Package core implements FlyMon's contribution: Composable Measurement
// Units (CMUs) and CMU Groups mapped onto the simulated RMT data plane,
// with runtime-reconfigurable key selection (compression + initialization
// stages), attribute operations from the reduced stateful operation set
// (preparation + operation stages), dynamic memory management via address
// translation, and the cross-stacked pipeline layout.
package core

import (
	"fmt"
	"math/bits"

	"flymon/internal/dataplane"
	"flymon/internal/packet"
)

// Selector picks a 32-bit value from the compression stage's compressed
// keys: unit A, optionally XORed with unit B (the k(k+1)/2 key-combination
// trick, §3.1.1), then narrowed to a bit sub-range so the CMUs of a group
// can simulate independent hash functions from shared compressed keys
// (§3.2).
type Selector struct {
	UnitA int // index of the first compressed key
	UnitB int // second compressed key for XOR, or -1 for none
	Lo    int // low bit of the sub-range (0 = full)
	Width int // sub-range width in bits (0 = full 32)
}

// FullKey selects compressed key `unit` at full width.
func FullKey(unit int) Selector { return Selector{UnitA: unit, UnitB: -1, Width: 32} }

// XorKey selects the XOR of two compressed keys at full width.
func XorKey(a, b int) Selector { return Selector{UnitA: a, UnitB: b, Width: 32} }

// SubRange narrows the selector to bits [lo, lo+width).
func (s Selector) SubRange(lo, width int) Selector {
	s.Lo, s.Width = lo, width
	return s
}

// Resolve extracts the selected value from the compressed key vector.
func (s Selector) Resolve(keys []uint32) uint32 {
	var v uint32
	if s.UnitA >= 0 && s.UnitA < len(keys) {
		v = keys[s.UnitA]
	}
	if s.UnitB >= 0 && s.UnitB < len(keys) {
		v ^= keys[s.UnitB]
	}
	width := s.Width
	if width <= 0 || width > 32 {
		width = 32
	}
	lo := s.Lo % 32
	if lo < 0 {
		lo += 32
	}
	if lo != 0 {
		v = v>>uint(lo) | v<<uint(32-lo)
	}
	if width < 32 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// units returns the compressed keys the selector reads, one bit per unit.
func (s Selector) units() uint64 {
	var m uint64
	for _, u := range [2]int{s.UnitA, s.UnitB} {
		if u >= 0 && u < 64 {
			m |= 1 << uint(u)
		}
	}
	return m
}

// ParamKind enumerates the sources a CMU's initialization stage can bind to
// a parameter: constants, standard metadata, compressed keys, and the
// result bus of an upstream CMU (§3.2: "The parameters can be constant
// values or standard metadata such as packet size, timestamp, queue length,
// and delay"; cross-CMU results enable SuMax, Counter Braids, and the
// max-interval task, §4/Appendix D).
type ParamKind uint8

// Parameter sources.
const (
	ParamConst    ParamKind = iota
	ParamMaxValue           // +∞: turns Cond-ADD into an unconditional ADD
	ParamPacketSize
	ParamTimestampUs
	ParamQueueLength
	ParamQueueDelay
	ParamCompressedKey // Sel picks which compressed key / sub-range
	ParamPrevResult    // result of the previous CMU in pipeline order
	ParamPrevOld       // pre-update value read by the previous CMU's SALU
)

// ParamSource describes one parameter binding.
type ParamSource struct {
	Kind  ParamKind
	Value uint32   // for ParamConst
	Sel   Selector // for ParamCompressedKey
}

// Convenience constructors.
func Const(v uint32) ParamSource { return ParamSource{Kind: ParamConst, Value: v} }
func MaxValue() ParamSource      { return ParamSource{Kind: ParamMaxValue} }
func PacketSize() ParamSource    { return ParamSource{Kind: ParamPacketSize} }
func TimestampUs() ParamSource   { return ParamSource{Kind: ParamTimestampUs} }
func QueueLength() ParamSource   { return ParamSource{Kind: ParamQueueLength} }
func QueueDelay() ParamSource    { return ParamSource{Kind: ParamQueueDelay} }
func CompressedKey(s Selector) ParamSource {
	return ParamSource{Kind: ParamCompressedKey, Sel: s}
}
func PrevResult() ParamSource { return ParamSource{Kind: ParamPrevResult} }
func PrevOld() ParamSource    { return ParamSource{Kind: ParamPrevOld} }

func (ps ParamSource) resolve(ctx *Context, keys []uint32) uint32 {
	switch ps.Kind {
	case ParamConst:
		return ps.Value
	case ParamMaxValue:
		return ^uint32(0)
	case ParamPacketSize:
		return ctx.Pkt.Size
	case ParamTimestampUs:
		return uint32(ctx.Pkt.TimestampNs / 1000)
	case ParamQueueLength:
		return ctx.Pkt.QueueLength
	case ParamQueueDelay:
		return ctx.Pkt.QueueDelayNs
	case ParamCompressedKey:
		return ps.Sel.Resolve(keys)
	case ParamPrevResult:
		return ctx.PrevResult
	case ParamPrevOld:
		return ctx.PrevOld
	default:
		return 0
	}
}

// TransformKind enumerates the preparation-stage parameter mappings FlyMon
// installs as TCAM entries (§3.2): "a CMU can dynamically establish a
// mapping function between the input and output parameters".
type TransformKind uint8

// Preparation-stage transforms.
const (
	// TransformNone passes parameters through.
	TransformNone TransformKind = iota
	// TransformCoupon maps p1 to a one-hot coupon bit per BeauCoup's draw
	// rule, dropping the update when no coupon is drawn. p2 is forced to 1
	// so AND-OR takes its OR branch.
	TransformCoupon
	// TransformBitSelect maps p1 to a one-hot bit (1 << (p1 mod width)) —
	// the Bloom-filter bit-packing optimization (§4, Existence Check).
	TransformBitSelect
	// TransformLZRank maps p1 to its HyperLogLog rank ρ: the 1-based
	// position of the leftmost 1-bit in the low (32 − Discard) bits.
	TransformLZRank
	// TransformIntervalSub maps p1 to saturating p1 − p2' where p2' is the
	// previous CMU's pre-update value (the max-interval subtraction, §4),
	// and drops the update when the previous CMU reported a new flow.
	TransformIntervalSub
	// TransformZeroGate maps p1 to IfZero when p1 == 0 and to Else
	// otherwise (the Counter Braids carry judgement, Appendix D).
	TransformZeroGate
)

// Transform is one preparation-stage mapping with its parameters.
type Transform struct {
	Kind TransformKind

	// Coupons and ProbLog2 parameterize TransformCoupon.
	Coupons  int
	ProbLog2 int

	// Width parameterizes TransformBitSelect (bits per bucket).
	Width int

	// Discard parameterizes TransformLZRank (top bits consumed by bucket
	// addressing and excluded from the rank).
	Discard int

	// IfZero and Else parameterize TransformZeroGate.
	IfZero uint32
	Else   uint32
}

// apply maps (p1, p2) under the transform; drop=true suppresses the
// stateful operation for this packet.
func (t Transform) apply(ctx *Context, p1, p2 uint32) (out1, out2 uint32, drop bool) {
	return t.applyVals(p1, p2, ctx.PrevOld, ctx.PrevNewFlow)
}

// applyVals is apply with the context's result-bus inputs passed by value.
// Transforms read nothing else from the Context, so the batch engine can
// resolve prevOld/prevNew from its per-frame bus arrays and share this
// kernel with the sequential path — the two stay equivalent by
// construction.
func (t Transform) applyVals(p1, p2, prevOld uint32, prevNew bool) (out1, out2 uint32, drop bool) {
	switch t.Kind {
	case TransformNone:
		return p1, p2, false
	case TransformCoupon:
		if t.ProbLog2 > 0 {
			idx := int(p1 >> uint(32-t.ProbLog2))
			if idx >= t.Coupons {
				return 0, 0, true
			}
			return 1 << uint(idx), 1, false
		}
		return 1, 1, false
	case TransformBitSelect:
		w := t.Width
		if w <= 0 {
			w = 32
		}
		return 1 << (p1 % uint32(w)), 1, false
	case TransformLZRank:
		rest := p1 << uint(t.Discard)
		rank := uint32(bits.LeadingZeros32(rest)) + 1
		if rest == 0 {
			rank = uint32(32 - t.Discard + 1)
		}
		return rank, p2, false
	case TransformIntervalSub:
		// prevOld carries the previous arrival time read by the upstream
		// CMU; prevNew reports whether the Bloom-filter CMU classified the
		// flow as new.
		if prevNew {
			return 0, p2, false // new flow: interval initialised to 0
		}
		if p1 < prevOld {
			return 0, p2, true
		}
		return p1 - prevOld, p2, false
	case TransformZeroGate:
		if p1 == 0 {
			return t.IfZero, p2, false
		}
		return t.Else, p2, false
	default:
		return p1, p2, false
	}
}

// TCAMEntries returns the TASK-SPECIFIC preparation-stage TCAM entries the
// transform installs at deployment time, for resource accounting and the
// delay model. The bit-select and leading-zero-rank mappings are
// task-independent (the same table serves every task) and are installed
// once with the data-plane program, so they cost nothing per deployment;
// coupon tables depend on the query's (c, γ, p) and are installed per task
// — which is why FlyMon-BeauCoup has the highest deployment delay
// (Table 3).
func (t Transform) TCAMEntries() int {
	switch t.Kind {
	case TransformCoupon:
		return t.Coupons + 1
	case TransformIntervalSub, TransformZeroGate:
		return 2
	default:
		return 0
	}
}

// Rule is one task's complete CMU configuration: the runtime state the
// control plane installs to bind a measurement task to this CMU. Rules are
// matched in priority (installation) order; the first filter hit wins,
// enforcing the one-access-per-packet constraint.
type Rule struct {
	TaskID int
	Filter packet.Filter

	Key Selector    // initialization: dynamic key selection
	P1  ParamSource // initialization: first parameter
	P2  ParamSource // initialization: second parameter

	Prep Transform // preparation: parameter mapping

	Mem         MemRange          // preparation: address translation target
	Translation TranslationMethod // which translation mechanism

	Op dataplane.StatefulOp // operation: selected stateful action

	// Prob enables probabilistic execution (0 < Prob ≤ 1): the rule fires
	// on a packet with this probability, the sampling workaround for tasks
	// with intersecting traffic on one CMU (§5.3, §6). Zero means 1.
	Prob float64

	// ChainMin makes the rule participate in a cross-group running-minimum
	// chain (SuMax(Sum), §4): p2 is taken from the context's running
	// minimum instead of P2, and a positive result lowers that minimum.
	ChainMin bool

	// DetectNew marks a Bloom-filter rule that classifies flows as
	// new/seen for downstream CMUs (max inter-arrival, §4): after the
	// operation, the context's new-flow flag is set when the bucket's
	// pre-update value did not yet contain the flow's bit.
	DetectNew bool

	// Disabled freezes the rule: its task-filter entry is withdrawn so it
	// matches no packets, but its register partition stays allocated and
	// readable — the paper's freeze-and-divert memory strategy (§6).
	Disabled bool
}

// units returns the compression units the rule reads — its key selector and
// any compressed-key parameter — one bit per unit.
func (r *Rule) units() uint64 {
	m := r.Key.units()
	if r.P1.Kind == ParamCompressedKey {
		m |= r.P1.Sel.units()
	}
	if r.P2.Kind == ParamCompressedKey {
		m |= r.P2.Sel.units()
	}
	return m
}

// Context is the per-packet PHV slice threaded through the CMU pipeline:
// the packet, the last CMU's result bus, and algorithm-level flags.
type Context struct {
	Pkt *packet.Packet

	// PrevResult and PrevOld carry the previous executed CMU's stateful
	// result and pre-update read value (the SALU output bus).
	PrevResult uint32
	PrevOld    uint32

	// PrevNewFlow is set by a Bloom-filter CMU when the current packet's
	// flow was not yet in the filter (max-interval support, §4).
	PrevNewFlow bool

	// RunningMin is the cross-CMU minimum chain used by SuMax(Sum); reset
	// to MaxUint32 per packet.
	RunningMin uint32

	// Shard is the worker's private register-lane index, or -1 when this
	// context writes through the shared CAS path. Only sharded worker-pool
	// contexts carry a lane (see WorkerPool); the compiled program routes
	// a rule to the lane only when its op is exactly mergeable.
	Shard int32

	// Tele, when the owning ProcCtx is armed for a telemetry-enabled
	// snapshot, aliases the worker's pending per-rule hit accumulators
	// (plain counts, flushed in batches into the striped registry counters;
	// see ProcCtx.teleFlush). Rules compiled with teleSlot >= 0 increment
	// Tele[teleSlot] on execution; with telemetry off every slot is -1 and
	// Tele stays nil.
	Tele []uint64

	// PrepDrops counts preparation-stage drops (coupon misses, interval
	// gates) since the last telemetry flush. It increments unconditionally —
	// one plain add on the already-rare drop path — and is only collected
	// when telemetry is armed.
	PrepDrops uint64

	// rng drives probabilistic execution, deterministic per pipeline.
	rng uint64
}

// coin returns true with probability p, advancing the context's xorshift
// state.
func (ctx *Context) coin(p float64) bool {
	if p >= 1 || p <= 0 {
		return true
	}
	ctx.rng ^= ctx.rng << 13
	ctx.rng ^= ctx.rng >> 7
	ctx.rng ^= ctx.rng << 17
	return float64(ctx.rng>>11)/(1<<53) < p
}

// CMU is one Composable Measurement Unit: a register (SALU + SRAM) plus the
// per-task rules currently installed on it.
type CMU struct {
	index    int
	register *dataplane.Register
	rules    []*Rule
}

// NewCMU builds CMU `index` of a group with the given register geometry.
func NewCMU(index, buckets, bitWidth int) *CMU {
	return &CMU{index: index, register: dataplane.NewRegister(buckets, bitWidth)}
}

// Register exposes the CMU's register for control-plane readout.
func (c *CMU) Register() *dataplane.Register { return c.register }

// Index returns the CMU's position within its group.
func (c *CMU) Index() int { return c.index }

// InstallRule appends a task rule. Returns an error when the rule's memory
// range does not fit the register or overlaps an installed rule's range,
// or when its filter intersects an installed rule's filter (the
// one-task-per-packet constraint) — unless both rules run probabilistically.
func (c *CMU) InstallRule(r *Rule) error {
	if err := c.validate(r); err != nil {
		return err
	}
	c.rules = append(c.rules, r)
	return nil
}

func (c *CMU) validate(r *Rule) error {
	reject := func(kind ruleErrKind, prev int) error {
		return &ruleError{kind: kind, task: r.TaskID, prev: prev, cmu: c.index,
			mem: r.Mem, size: c.register.Size(), filter: r.Filter}
	}
	if r.Mem.Buckets <= 0 || r.Mem.Base < 0 ||
		r.Mem.Base+r.Mem.Buckets > c.register.Size() {
		return reject(ruleErrRange, 0)
	}
	if r.Mem.Buckets&(r.Mem.Buckets-1) != 0 {
		return reject(ruleErrPow2, 0)
	}
	if r.Mem.Base%r.Mem.Buckets != 0 {
		return reject(ruleErrAlign, 0)
	}
	for _, prev := range c.rules {
		if prev.TaskID == r.TaskID {
			return reject(ruleErrDuplicate, 0)
		}
		if prev.Mem.Overlaps(r.Mem) {
			return reject(ruleErrOverlap, prev.TaskID)
		}
		if exclusive(prev, r.Filter, r.Prob, r.Disabled) {
			return reject(ruleErrFilter, prev.TaskID)
		}
	}
	return nil
}

// exclusive is the one-access-per-packet rule: a rule with filter f,
// sampling probability prob and the given frozen state may not share a CMU
// with the installed rule prev when both are enabled, their traffic
// intersects, and they are not both sampled. InstallRule's validation and
// the read-only Admit both decide through it.
func exclusive(prev *Rule, f packet.Filter, prob float64, disabled bool) bool {
	sampled := prev.Prob > 0 && prev.Prob < 1 && prob > 0 && prob < 1
	return !sampled && !prev.Disabled && !disabled && prev.Filter.Intersects(f)
}

// Admit reports, without changing anything, whether an enabled, unsampled
// rule of task taskID with filter f may join the CMU's installed rules —
// the rule the control plane installs (it sets a sampling probability after
// the install). The error is the one InstallRule would return for such a
// rule. The placer asks it for every candidate CMU before it allocates or
// installs anything.
func (c *CMU) Admit(taskID int, f packet.Filter) error {
	for _, prev := range c.rules {
		if exclusive(prev, f, 0, false) {
			return &ruleError{kind: ruleErrFilter, task: taskID, prev: prev.TaskID, cmu: c.index,
				size: c.register.Size(), filter: f}
		}
	}
	return nil
}

type ruleErrKind uint8

const (
	ruleErrRange ruleErrKind = iota
	ruleErrPow2
	ruleErrAlign
	ruleErrDuplicate
	ruleErrOverlap
	ruleErrFilter
)

// ruleError is one InstallRule rejection. It carries the operands and
// formats them in Error: the control plane's placer probes groups and CMU
// offsets in order and surfaces only the first rejection, so a miss costs
// the comparisons that found it, not a formatted filter.
type ruleError struct {
	kind       ruleErrKind
	task, prev int // the rejected rule's task; the installed task it collides with
	cmu, size  int // CMU index and register size
	mem        MemRange
	filter     packet.Filter
}

func (e *ruleError) Error() string {
	switch e.kind {
	case ruleErrRange:
		return fmt.Sprintf("core: rule task %d memory range %+v exceeds register of %d buckets",
			e.task, e.mem, e.size)
	case ruleErrPow2:
		return fmt.Sprintf("core: rule task %d partition size %d is not a power of two",
			e.task, e.mem.Buckets)
	case ruleErrAlign:
		return fmt.Sprintf("core: rule task %d base %d not aligned to partition size %d",
			e.task, e.mem.Base, e.mem.Buckets)
	case ruleErrDuplicate:
		return fmt.Sprintf("core: task %d already installed on CMU %d", e.task, e.cmu)
	case ruleErrOverlap:
		return fmt.Sprintf("core: task %d memory range overlaps task %d on CMU %d",
			e.task, e.prev, e.cmu)
	default:
		return fmt.Sprintf("core: task %d filter %q intersects task %d on CMU %d (one access per packet)",
			e.task, e.filter, e.prev, e.cmu)
	}
}

// RemoveRule unlinks the rule for taskID and reports whether one was
// installed. The rule's memory partition is left as it is: a snapshot
// compiled before the removal may still be executing the rule, so only the
// owner of the memory knows when it is quiescent (the control plane clears
// a partition once no reader can still hold the rule, before the allocator
// can grant it again; a rule that was never published has written nothing).
func (c *CMU) RemoveRule(taskID int) bool {
	for i, r := range c.rules {
		if r.TaskID == taskID {
			c.rules = append(c.rules[:i], c.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Rules returns the installed rules (do not mutate).
func (c *CMU) Rules() []*Rule { return c.rules }

// RuleFor returns the installed rule for taskID, or nil.
func (c *CMU) RuleFor(taskID int) *Rule {
	for _, r := range c.rules {
		if r.TaskID == taskID {
			return r
		}
	}
	return nil
}

// Process runs the CMU's four logical phases for one packet: first-match
// task selection, key/parameter initialization, preparation (address
// translation + parameter transform), and the stateful operation. It
// updates the context's result bus when a rule fires.
func (c *CMU) Process(ctx *Context, keys []uint32) {
	for _, r := range c.rules {
		if r.Disabled || !r.Filter.Matches(ctx.Pkt) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !ctx.coin(r.Prob) {
			return // sampled out: the packet consumed its one access slot
		}
		c.execute(ctx, r, keys)
		return // one task per packet per CMU
	}
}

func (c *CMU) execute(ctx *Context, r *Rule, keys []uint32) {
	executeRule(ctx, r, c.register, keys)
}

// executeRule runs one rule's initialization, preparation, and stateful
// operation against reg — the interpretive path's executor. The compiled
// snapshot fast path runs the same phases in the same order through
// compiledRule.exec (program.go), but against the CAS register variant
// (Register.Apply) because it serves many workers; the interpretive path
// is single-threaded and takes the plain ops (Register.ApplySeq). Keep the
// two in lockstep: the snapshot-equivalence tests require bit-identical
// register state.
func executeRule(ctx *Context, r *Rule, reg *dataplane.Register, keys []uint32) {
	addr := r.Key.Resolve(keys)
	index := Translate(addr, r.Mem, r.Translation)
	p1 := r.P1.resolve(ctx, keys)
	p2 := r.P2.resolve(ctx, keys)
	if r.ChainMin {
		p2 = ctx.RunningMin
	}
	p1, p2, drop := r.Prep.apply(ctx, p1, p2)
	if drop {
		return
	}
	result, old := reg.ApplySeq(r.Op, index, p1, p2)
	ctx.PrevResult = result
	ctx.PrevOld = old
	if r.ChainMin && result > 0 && result < ctx.RunningMin {
		ctx.RunningMin = result
	}
	if r.DetectNew {
		ctx.PrevNewFlow = old&p1 == 0
	}
}

// ReadTask returns a copy of the register partition assigned to taskID.
func (c *CMU) ReadTask(taskID int) ([]uint32, error) {
	r := c.RuleFor(taskID)
	if r == nil {
		return nil, fmt.Errorf("core: task %d not installed on CMU %d", taskID, c.index)
	}
	return c.register.ReadRange(r.Mem.Base, r.Mem.Buckets), nil
}
