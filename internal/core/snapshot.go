package core

import (
	"slices"
	"sync/atomic"

	"flymon/internal/hashing"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// Snapshot is an immutable compiled view of a pipeline's current runtime
// configuration — the RCU read side of FlyMon's on-the-fly reconfiguration.
// The control plane mutates the master Pipeline under its own lock, then
// Compiles a fresh Snapshot and publishes it through an atomic pointer;
// packet workers only ever load the pointer and execute against the frozen
// rule copies inside, so rule installs, freezes, and memory moves never
// stall traffic.
//
// Compilation flattens the configuration into dense per-CMU programs (see
// program.go) and optimizes the per-packet work:
//
//   - the masked canonical key is extracted once per distinct field mask
//     (units across groups usually share masks — every group's bootstrap
//     unit digests the 5-tuple),
//   - each distinct (mask, polynomial) digest is computed once and fanned
//     out: rule key selectors are rewritten to index the shared digest
//     cache directly, so no per-group key vector is ever copied,
//   - filters are lowered to one masked compare of two key words, and
//     address translation is folded to one shift or one mask,
//   - groups with zero enabled rules are dropped entirely, so their
//     compression stage costs nothing, and a live group digests only the
//     units its enabled rules read,
//   - disabled (frozen) rules are compiled out, including from the
//     spliced-group mirror decision.
//
// The result is a zero-allocation packet path: Snapshot.Process performs no
// heap allocation once a worker's ProcCtx scratch has grown to the
// snapshot's compiled sizes (enforced by alloc-regression tests).
//
// Register state is shared with the master pipeline by pointer, and
// control-plane readouts observe updates immediately. How an update is
// written follows the register's write policy: plain loads and stores when
// the one pool worker is every register's sole writer (Workers=1), atomic
// CAS and fetch-and-add ops on shared buckets otherwise, or plain stores to
// a worker's private lane for a sharded rule (mergeable.go).
type Snapshot struct {
	pl *Pipeline // counters (atomic) shared with the master pipeline

	groups  []snapGroup
	spliced []snapGroup
	// splicedMatch are the enabled spliced-group rule filters, compiled (the
	// tail of frameMatch): the mirror decision.
	splicedMatch []compiledMatch

	// masks are the distinct per-field masks of the units enabled rules
	// read (a configured unit nothing reads is not digested); hashes the
	// distinct (mask, polynomial) digests. Entries below nMainMasks /
	// nMainHashes are needed by the first pass; the rest only by the
	// recirculated pass.
	masks       [][packet.NumFields]uint32
	hashes      []snapHash
	nMainMasks  int
	nMainHashes int

	// blocks partition hashes by mask, one per entry of masks, spliced
	// masks included: the frame engine digests all of a mask's slots in one
	// fused pass (frames.go), on either form of stage 3.
	blocks []digestBlock

	// plan is how the frame engine runs the snapshot (plan.go).
	plan plan

	// Telemetry wiring (telemetry.go), present only when the pipeline had a
	// registry attached at Compile time. telePkts/teleRec hold the packets
	// this snapshot processed that have not yet been settled into durable
	// counters; teleSlots are the live-counted rules (indexed by
	// compiledRule.teleSlot); teleMain/teleSpl list the derived rules whose
	// hits equal the (recirculated) packet count; teleDigMain/teleDigSpl
	// are the compile-time digests-per-packet multipliers.
	teleOn      bool
	teleReg     *telemetry.Registry
	telePkts    atomic.Uint64
	teleRec     atomic.Uint64
	teleSlots   []*telemetry.RuleCounter
	teleMain    []*telemetry.RuleCounter
	teleSpl     []*telemetry.RuleCounter
	teleDigMain int
	teleDigSpl  int

	// progs holds every pipeline group's share of the snapshot, in pipeline
	// order (regular groups, then spliced), live or not: what Recompile
	// reuses for the groups a mutation did not touch.
	progs []*groupProg
}

type snapHash struct {
	mask int // index into Snapshot.masks
	h    hashing.Hasher
}

// digestBlock is one mask's digest slots, slots[:n] in slot order, and the
// fused kernel computing them in that order. A mask has at most one slot
// per polynomial, so a block is a fixed-size value.
type digestBlock struct {
	mask  int
	n     int
	slots [hashing.MaxFused]int32
	f     *hashing.Fused
}

// groupProg is one group's compiled program together with the facts the
// snapshot-wide passes take from it, kept per group so a republish can
// reassemble the snapshot without rescanning the rules of groups it did not
// touch.
type groupProg struct {
	sg   snapGroup
	live bool // at least one enabled rule
	// busConsumer: an enabled rule reads the cross-CMU result bus;
	// probGated: an enabled rule is sampled. Inputs to the plan.
	busConsumer, probGated bool
	// claims are the digests the group's enabled rules read, in unit order;
	// slots[u] is the snapshot digest slot unit u resolved to when sg was
	// compiled (-1: not read). sg is valid only while its claims resolve to
	// the same slots.
	claims []unitClaim
	slots  []int
	// teleBase is the snapshot telemetry slot of the group's first
	// live-counted rule; teleSlots are those rules' counters, teleDerived the
	// counters derived from the pass's packet count.
	teleBase    int
	teleSlots   []*telemetry.RuleCounter
	teleDerived []*telemetry.RuleCounter
}

// unitClaim is one compression unit a group's enabled rules read: the field
// mask it digests and its polynomial.
type unitClaim struct {
	unit int
	mask [packet.NumFields]uint32
	h    hashing.Hasher
}

// snapGroup holds the compiled programs of one live group's CMUs, in
// pipeline order. CMUs without enabled rules are compiled out.
type snapGroup struct {
	cmus []snapCMU
}

// snapCMU is one CMU's compiled rule program, in install (priority) order;
// the first matching rule wins, enforcing one access per packet. stage is
// where the frame engine runs it (plan.go); filter is the union of its
// rules' filter masks (compiledMatch.mask), which decides how the column
// stage selects (plan.selection).
type snapCMU struct {
	prog   []compiledRule
	stage  stage
	filter [2]uint64
}

// Compile freezes the pipeline's current configuration into a Snapshot,
// compiling every group. The caller must ensure no concurrent mutation of
// the pipeline's groups or rules during compilation (the controller
// compiles under its lock).
func (pl *Pipeline) Compile() *Snapshot { return pl.Recompile(nil, nil) }

// Recompile is Compile for a pipeline that changed only in the touched
// groups (indices in pipeline order: regular groups, then spliced) since
// prev was compiled from it. Every other group keeps prev's program as long
// as its digests resolve to the same slots, its telemetry slots start at
// the same index and the plan's inputs stand; otherwise it is compiled
// again. With a nil prev, or one compiled from another pipeline or
// telemetry registry, every group is compiled. The result equals
// Compile's whenever the untouched groups really are unchanged — unit
// configuration included — which the controller guarantees by marking
// every group a mutation writes.
func (pl *Pipeline) Recompile(prev *Snapshot, touched []int) *Snapshot {
	nReg, n := len(pl.groups), len(pl.groups)+len(pl.spliced)
	group := func(gi int) *Group {
		if gi < nReg {
			return pl.groups[gi]
		}
		return pl.spliced[gi-nReg]
	}
	if prev != nil && (prev.pl != pl || len(prev.progs) != n || prev.teleReg != pl.tele) {
		prev = nil
	}
	s := &Snapshot{pl: pl, progs: make([]*groupProg, n)}

	// Per-group facts: rescanned for touched groups, shared with prev for
	// the rest.
	live, liveReg := 0, 0
	for gi := range s.progs {
		if prev != nil && !slices.Contains(touched, gi) {
			s.progs[gi] = prev.progs[gi]
		} else {
			s.progs[gi] = scanGroup(group(gi))
		}
		p := s.progs[gi]
		if p.live {
			live++
			if gi < nReg {
				liveReg++
			}
		}
	}
	s.plan.planInputs = newPlanInputs(s.progs, nReg)
	keep := prev != nil && prev.plan.planInputs == s.plan.planInputs

	// Digest slots and programs, in pipeline order: the recirculated pass's
	// digests follow the first pass's. A kept program's claims must resolve
	// to the slots it was compiled against (claiming is idempotent, so
	// probing them costs nothing when the group is then recompiled). A
	// program shared with prev is never written: recompiling it compiles a
	// copy.
	capMasks, capHashes := n*CompressionUnits, n*CompressionUnits
	if prev != nil {
		capMasks, capHashes = len(prev.masks)+CompressionUnits, len(prev.hashes)+CompressionUnits
	}
	s.masks = make([][packet.NumFields]uint32, 0, capMasks)
	s.hashes = make([]snapHash, 0, capHashes)
	teleN, teleDerived, cmus := 0, 0, 0
	for gi, p := range s.progs {
		if gi == nReg {
			s.nMainMasks, s.nMainHashes = len(s.masks), len(s.hashes)
		}
		if !p.live {
			continue
		}
		shared := prev != nil && p == prev.progs[gi]
		same := keep && shared && p.teleBase == teleN
		for _, cl := range p.claims {
			if same && s.claim(cl) != p.slots[cl.unit] {
				same = false
			}
		}
		if !same {
			if shared {
				cp := *p
				p, s.progs[gi] = &cp, &cp
			}
			p.compile(s, group(gi), gi, gi >= nReg, teleN)
		}
		teleN += len(p.teleSlots)
		teleDerived += len(p.teleDerived)
		cmus += len(p.sg.cmus)
	}
	if nReg == n {
		s.nMainMasks, s.nMainHashes = len(s.masks), len(s.hashes)
	}

	// Assemble the snapshot-wide views from the per-group parts, and the
	// plan's stage lists in pipeline order.
	s.groups = make([]snapGroup, 0, liveReg)
	s.plan.column = make([]snapCMU, 0, cmus)
	if live > liveReg {
		s.spliced = make([]snapGroup, 0, live-liveReg)
	}
	if pl.tele != nil {
		s.teleSlots = make([]*telemetry.RuleCounter, 0, teleN)
		s.teleMain = make([]*telemetry.RuleCounter, 0, teleDerived)
	}
	mainMatch := 0
	for gi, p := range s.progs {
		if !p.live {
			continue
		}
		s.teleSlots = append(s.teleSlots, p.teleSlots...)
		for _, sc := range p.sg.cmus {
			switch {
			case sc.stage == stageColumn:
				s.plan.column = append(s.plan.column, sc)
				continue
			case gi < nReg:
				s.plan.ordered = append(s.plan.ordered, sc)
			default:
				s.plan.spliced = append(s.plan.spliced, sc)
			}
			for ri := range sc.prog {
				s.plan.frameMatch = append(s.plan.frameMatch, sc.prog[ri].match)
			}
		}
		if gi < nReg {
			s.groups = append(s.groups, p.sg)
			s.teleMain = append(s.teleMain, p.teleDerived...)
			mainMatch = len(s.plan.frameMatch)
			continue
		}
		s.spliced = append(s.spliced, p.sg)
		s.teleSpl = append(s.teleSpl, p.teleDerived...)
	}
	s.splicedMatch = s.plan.frameMatch[mainMatch:]
	s.blocks = s.digestBlocks()
	s.plan.keyMask, s.plan.grouped = groupKeyMask(s.masks)
	if pl.tele != nil {
		s.teleOn = true
		s.teleReg = pl.tele
		s.teleDigMain = s.nMainHashes
		s.teleDigSpl = len(s.hashes) - s.nMainHashes
	}
	return s
}

// scanGroup collects the facts the snapshot-wide passes need from one
// group: liveness, the bus and sampling verdicts, and the digests its
// enabled rules read. Only read units are claimed — a configured unit no
// enabled rule selects costs the packet path nothing.
func scanGroup(g *Group) *groupProg {
	p := new(groupProg)
	var read uint64
	for _, c := range g.cmus {
		for _, r := range c.rules {
			if r.Disabled {
				continue
			}
			p.live = true
			p.busConsumer = p.busConsumer || busConsumer(r)
			p.probGated = p.probGated || (r.Prob > 0 && r.Prob < 1)
			read |= r.units()
		}
	}
	for ui, u := range g.units {
		if ui < 64 && read&(1<<uint(ui)) != 0 && u.Live() {
			p.claims = append(p.claims, unitClaim{unit: ui, mask: u.Mask(), h: u.Hasher()})
		}
	}
	return p
}

// claim returns the digest slot of cl, deduplicating masks and (mask,
// polynomial) pairs across the whole snapshot.
func (s *Snapshot) claim(cl unitClaim) int {
	mi := slices.Index(s.masks, cl.mask)
	if mi < 0 {
		mi = len(s.masks)
		s.masks = append(s.masks, cl.mask)
	}
	for hi := range s.hashes {
		if s.hashes[hi].mask == mi && s.hashes[hi].h == cl.h {
			return hi
		}
	}
	s.hashes = append(s.hashes, snapHash{mask: mi, h: cl.h})
	return len(s.hashes) - 1
}

// digestBlocks partitions s's digest slots by mask, in slot order, with
// each mask's fused kernel — a pure function of the slots, so a republish
// builds the blocks Compile would. Kernels come from the process-wide cache
// (hashing.NewFused): only a (mask, polynomials) pair no snapshot has used
// before builds tables.
func (s *Snapshot) digestBlocks() []digestBlock {
	blocks := make([]digestBlock, len(s.masks))
	for h, sh := range s.hashes {
		b := &blocks[sh.mask]
		b.slots[b.n] = int32(h)
		b.n++
	}
	for m := range blocks {
		b := &blocks[m]
		b.mask = m
		var hs [hashing.MaxFused]hashing.Hasher
		for q, h := range b.slots[:b.n] {
			hs[q] = s.hashes[h].h
		}
		b.f = hashing.NewFused(s.masks[m], hs[:b.n])
	}
	return blocks
}

// compile lowers group g (pipeline index gi) into p against s's digest
// slots, plans each CMU under s's plan inputs, and numbers its live-counted
// telemetry rules from teleBase. p's slices may be shared with an older
// snapshot's copy of p, so every one is rebuilt.
func (p *groupProg) compile(s *Snapshot, g *Group, gi int, spliced bool, teleBase int) {
	p.slots = make([]int, len(g.units))
	for u := range p.slots {
		p.slots[u] = -1
	}
	for _, cl := range p.claims {
		p.slots[cl.unit] = s.claim(cl)
	}
	p.sg = snapGroup{cmus: make([]snapCMU, 0, len(g.cmus))}
	p.teleBase, p.teleSlots, p.teleDerived = teleBase, nil, nil
	tele := s.pl.tele
	for ci, c := range g.cmus {
		sc := snapCMU{prog: make([]compiledRule, 0, len(c.rules)), stage: s.plan.cmuStage(c, spliced)}
		for _, r := range c.rules {
			if r.Disabled {
				continue
			}
			cr := compileRule(r, c.register, p.slots)
			s.plan.planRule(&cr, r, sc.stage)
			if tele != nil {
				// First-match semantics make a match-all, unsampled rule at
				// program position 0 execute for every packet of its pass:
				// its hits are derived from the snapshot packet counter
				// instead of counted per execution. ci is the CMU's real
				// pipeline position — compiled-out CMUs must not shift the
				// telemetry coordinates.
				derived := len(sc.prog) == 0 && cr.match.all() && !cr.probGated
				rc := tele.Rule(
					telemetry.RuleKey{Group: gi, CMU: ci, Task: r.TaskID},
					telemetry.RuleMeta{
						Op:      r.Op.String(),
						Prep:    cr.hasPrep,
						Spliced: spliced,
						Sharded: cr.sharded,
						Derived: derived,
					})
				if derived {
					p.teleDerived = append(p.teleDerived, rc)
				} else {
					cr.teleSlot = int32(teleBase + len(p.teleSlots))
					p.teleSlots = append(p.teleSlots, rc)
				}
			}
			sc.filter[0] |= cr.match.mask[0]
			sc.filter[1] |= cr.match.mask[1]
			sc.prog = append(sc.prog, cr)
		}
		if len(sc.prog) > 0 {
			p.sg.cmus = append(p.sg.cmus, sc)
		}
	}
}

// ShardedRules counts the plan's lane routing: how many enabled rules
// execute on private per-worker lanes vs the shared CAS path.
func (s *Snapshot) ShardedRules() (sharded, fallback int) {
	for _, cmus := range [][]snapCMU{s.plan.column, s.plan.ordered, s.plan.spliced} {
		for _, sc := range cmus {
			for ri := range sc.prog {
				if sc.prog[ri].sharded {
					sharded++
				}
				fallback++
			}
		}
	}
	return sharded, fallback - sharded
}

// Process pushes one packet through the compiled pipeline. Safe for
// concurrent callers as long as each carries its own ProcCtx. It performs
// no heap allocation once pc's scratch matches the snapshot's compiled
// sizes (the first call grows it).
func (s *Snapshot) Process(pc *ProcCtx, p *packet.Packet) {
	s.pl.packets.Add(1)
	if s.teleOn {
		pc.teleTick(s)
	}
	pc.reset(p)
	s.digest(pc, p, 0, s.nMainMasks, 0, s.nMainHashes)
	for gi := range s.groups {
		s.groups[gi].process(pc)
	}
	if len(s.splicedMatch) == 0 || !s.wants(p) {
		return
	}
	// The mirrored copy re-enters the pipeline: a fresh PHV.
	s.pl.recirculated.Add(1)
	if s.teleOn {
		pc.teleRecPend++
	}
	pc.reset(p)
	s.digest(pc, p, s.nMainMasks, len(s.masks), s.nMainHashes, len(s.hashes))
	for gi := range s.spliced {
		s.spliced[gi].process(pc)
	}
}

// digest fills the context's masked-key and hash caches for mask entries
// [m0, m1) and hash entries [h0, h1).
func (s *Snapshot) digest(pc *ProcCtx, p *packet.Packet, m0, m1, h0, h1 int) {
	if cap(pc.masked) < len(s.masks) {
		pc.masked = make([]packet.CanonicalKey, len(s.masks))
	}
	if cap(pc.hashes) < len(s.hashes) {
		pc.hashes = make([]uint32, len(s.hashes))
	}
	pc.masked = pc.masked[:len(s.masks)]
	pc.hashes = pc.hashes[:len(s.hashes)]
	for m := m0; m < m1; m++ {
		pc.masked[m] = packet.ExtractMasked(p, s.masks[m])
	}
	for hi := h0; hi < h1; hi++ {
		sh := &s.hashes[hi]
		pc.hashes[hi] = sh.h.Sum(pc.masked[sh.mask])
	}
}

// wants reports whether any enabled spliced-group task matches p.
func (s *Snapshot) wants(p *packet.Packet) bool {
	for i := range s.splicedMatch {
		if s.splicedMatch[i].matches(p) {
			return true
		}
	}
	return false
}

func (sg *snapGroup) process(pc *ProcCtx) {
	for ci := range sg.cmus {
		sg.cmus[ci].process(&pc.Ctx, pc.hashes)
	}
}

// process runs one CMU's compiled program: first-match task selection over
// the specialized matchers, then the flattened rule body. Rule key
// selectors index the shared digest cache directly.
func (sc *snapCMU) process(ctx *Context, hashes []uint32) {
	for i := range sc.prog {
		r := &sc.prog[i]
		if !r.match.matches(ctx.Pkt) {
			continue
		}
		if r.probGated && !ctx.coin(r.prob) {
			return // sampled out: the packet consumed its one access slot
		}
		r.exec(ctx, hashes)
		return // one task per packet per CMU
	}
}

// ProcessBatchCtx pushes a packet slice through the snapshot sequentially
// on the caller's context. It is the sequential reference, kept on purpose
// beside the frame engine: the differential tests (and the benchmark's
// set-up check and core.batch_ns_per_pkt) compare ProcessFrames against
// it, so it must stay an independent path. A fresh NewProcCtx — or a
// recycled context after Reseed — replays deterministically; without the
// reseed the rng stream simply continues.
func (s *Snapshot) ProcessBatchCtx(pc *ProcCtx, ps []packet.Packet) {
	for i := range ps {
		s.Process(pc, &ps[i])
	}
	pc.teleFlush() // counts are scrape-exact at the batch boundary
}
