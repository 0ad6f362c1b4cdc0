package core

import (
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
//   - filters are specialized by shape (match-all / exact-field / prefix)
//     and address translation is folded to one shift or one mask,
//   - groups with zero enabled rules are dropped entirely, so their
//     compression stage costs nothing,
//   - disabled (frozen) rules are compiled out, including from the
//     spliced-group mirror decision.
//
// The result is a zero-allocation packet path: Snapshot.Process performs no
// heap allocation once a worker's ProcCtx scratch has grown to the
// snapshot's compiled sizes (enforced by alloc-regression tests).
//
// Register state is shared with the master pipeline by pointer: updates go
// through the registers' atomic CAS ops, and control-plane readouts observe
// them immediately.
type Snapshot struct {
	pl *Pipeline // counters (atomic) shared with the master pipeline

	groups  []snapGroup
	spliced []snapGroup
	// splicedMatch are the enabled spliced-group rule filters, compiled:
	// the mirror decision.
	splicedMatch []compiledMatch

	// masks are the distinct per-field masks live units digest; hashes the
	// distinct (mask, polynomial) digests. Entries below nMainMasks /
	// nMainHashes are needed by the first pass; the rest only by the
	// recirculated pass.
	masks       [][packet.NumFields]uint32
	hashes      []snapHash
	nMainMasks  int
	nMainHashes int

	// shardedRules / fallbackRules count the compile-time routing verdicts
	// (mergeable.go): how many enabled rules run on private lanes vs the
	// shared CAS path. Diagnostics for operators comparing modes.
	shardedRules  int
	fallbackRules int

	// frameVec marks the snapshot eligible for the stage-at-a-time
	// FrameView engine (frames.go): no live spliced groups (the mirror
	// decision and recirculated pass are packet-at-a-time) and no
	// probabilistically gated rules (the rng coin stream advances in strict
	// packet order; a vectorized pass would reorder the flips and diverge
	// from sequential replay). Ineligible snapshots still accept
	// ProcessFrames — it falls back to decoding each frame and running the
	// sequential path, so a mid-replay reconfiguration into an ineligible
	// configuration only changes speed, never results.
	frameVec bool

	// busQuiet records that no enabled rule anywhere in the snapshot reads
	// the cross-CMU result bus (same scan that authorizes sharding). The
	// frame engine then skips the witness scatter entirely — every
	// busRes/busOld/busMin/busNew write would be dead — and fastAdd rules
	// drop to the witness-free fetch-and-add register path.
	busQuiet bool

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
}

type snapHash struct {
	mask int // index into Snapshot.masks
	h    hashing.Hasher
}

// snapGroup holds the compiled programs of one live group's CMUs, in
// pipeline order. CMUs without enabled rules are compiled out.
type snapGroup struct {
	cmus []snapCMU
}

// snapCMU is one CMU's compiled rule program, in install (priority) order;
// the first matching rule wins, enforcing one access per packet.
type snapCMU struct {
	prog []compiledRule
}

// Compile freezes the pipeline's current configuration into a Snapshot.
// The caller must ensure no concurrent mutation of the pipeline's groups
// or rules during compilation (the controller compiles under its lock).
func (pl *Pipeline) Compile() *Snapshot {
	s := &Snapshot{pl: pl}
	maskIdx := make(map[[packet.NumFields]uint32]int)
	type hashKey struct {
		mask, poly int
	}
	hashIdx := make(map[hashKey]int)

	// Sharding is sound only while nothing can observe a lane-local result
	// bus: one enabled bus consumer anywhere (SuMax's min chain, Counter
	// Braids' PrevResult, max-interval's IntervalSub) pins the whole
	// snapshot to the shared CAS path.
	allowShard := true
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			for _, r := range g.CMU(i).Rules() {
				if !r.Disabled && busConsumer(r) {
					allowShard = false
				}
			}
		}
	}

	compile := func(gi int, g *Group, splicedGroup bool) (snapGroup, bool) {
		live := false
		for _, c := range g.cmus {
			for _, r := range c.rules {
				if !r.Disabled {
					live = true
					break
				}
			}
		}
		if !live {
			return snapGroup{}, false
		}
		// Claim digest slots for the group's live units, deduplicating
		// masks and (mask, polynomial) pairs across the whole snapshot.
		unitHash := make([]int, len(g.units))
		for ui, u := range g.units {
			if !u.Live() {
				unitHash[ui] = -1
				continue
			}
			mask := u.Mask()
			mi, ok := maskIdx[mask]
			if !ok {
				mi = len(s.masks)
				maskIdx[mask] = mi
				s.masks = append(s.masks, mask)
			}
			hk := hashKey{mask: mi, poly: u.Index()}
			hi, ok := hashIdx[hk]
			if !ok {
				hi = len(s.hashes)
				hashIdx[hk] = hi
				s.hashes = append(s.hashes, snapHash{mask: mi, h: u.Hasher()})
			}
			unitHash[ui] = hi
		}
		var sg snapGroup
		for ci, c := range g.cmus {
			var sc snapCMU
			for _, r := range c.rules {
				if r.Disabled {
					continue
				}
				cr := compileRule(r, c.register, unitHash, allowShard)
				if cr.sharded {
					s.shardedRules++
				} else {
					s.fallbackRules++
				}
				if pl.tele != nil {
					// First-match semantics make a match-all, unsampled rule
					// at program position 0 execute for every packet of its
					// pass: its hits are derived from the snapshot packet
					// counter instead of counted per execution. ci is the
					// CMU's real pipeline position — compiled-out CMUs must
					// not shift the telemetry coordinates.
					derived := len(sc.prog) == 0 && cr.match.kind == matchAll && !cr.probGated
					rc := pl.tele.Rule(
						telemetry.RuleKey{Group: gi, CMU: ci, Task: r.TaskID},
						telemetry.RuleMeta{
							Op:      r.Op.String(),
							Prep:    cr.hasPrep,
							Spliced: splicedGroup,
							Sharded: cr.sharded,
							Derived: derived,
						})
					switch {
					case !derived:
						cr.teleSlot = int32(len(s.teleSlots))
						s.teleSlots = append(s.teleSlots, rc)
					case splicedGroup:
						s.teleSpl = append(s.teleSpl, rc)
					default:
						s.teleMain = append(s.teleMain, rc)
					}
				}
				sc.prog = append(sc.prog, cr)
			}
			if len(sc.prog) > 0 {
				sg.cmus = append(sg.cmus, sc)
			}
		}
		return sg, true
	}

	for gi, g := range pl.groups {
		if sg, ok := compile(gi, g, false); ok {
			s.groups = append(s.groups, sg)
		}
	}
	s.nMainMasks, s.nMainHashes = len(s.masks), len(s.hashes)
	for si, g := range pl.spliced {
		sg, ok := compile(len(pl.groups)+si, g, true)
		if !ok {
			continue
		}
		s.spliced = append(s.spliced, sg)
		for ci := range sg.cmus {
			for ri := range sg.cmus[ci].prog {
				s.splicedMatch = append(s.splicedMatch, sg.cmus[ci].prog[ri].match)
			}
		}
	}
	if pl.tele != nil {
		s.teleOn = true
		s.teleReg = pl.tele
		s.teleDigMain = s.nMainHashes
		s.teleDigSpl = len(s.hashes) - s.nMainHashes
	}
	s.busQuiet = allowShard
	s.frameVec = len(s.spliced) == 0
	for gi := range s.groups {
		for ci := range s.groups[gi].cmus {
			for ri := range s.groups[gi].cmus[ci].prog {
				if s.groups[gi].cmus[ci].prog[ri].probGated {
					s.frameVec = false
				}
			}
		}
	}
	return s
}

// ShardedRules returns the compile-time routing verdict: how many enabled
// rules execute on private per-worker lanes vs the shared CAS path.
func (s *Snapshot) ShardedRules() (sharded, fallback int) {
	return s.shardedRules, s.fallbackRules
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
