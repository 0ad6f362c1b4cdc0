package core

import (
	"fmt"
	"sync/atomic"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// rngSeed is the xorshift seed every fresh per-worker context starts from,
// keeping single-context replays deterministic across runs.
const rngSeed = 0x9E3779B97F4A7C15

// ProcCtx is the per-worker scratch a packet needs on its way through the
// data plane: the PHV Context plus the compressed-key buffers the
// compression stage fills. One ProcCtx serves one worker; concurrent
// workers each own their own, which is what makes the packet path safe to
// run on many cores (the registers themselves are atomic).
type ProcCtx struct {
	Ctx Context

	// keyBuf holds one group's compressed keys (interpretive path) or the
	// per-group remap of deduplicated hashes (snapshot path).
	keyBuf []uint32
	// masked caches the distinct masked canonical keys of the current
	// packet, indexed by the snapshot's mask table.
	masked []packet.CanonicalKey
	// hashes caches the distinct (mask, polynomial) digests of the current
	// packet, indexed by the snapshot's hash table.
	hashes []uint32

	// Telemetry scratch (telemetry.go): the snapshot the accumulators are
	// armed for, the pending per-rule hit counts Ctx.Tele aliases, pending
	// packet/recirculation counts, and the worker's counter stripe. All
	// context-local; teleFlush moves them into the shared striped counters.
	teleSnap    *Snapshot
	tele        []uint64
	telePend    uint32
	teleRecPend uint32
	stripe      uint32

	// framePkt is the decode target of the frame engine's packet-order
	// pass (frames.go); its chunk scratch is lent per span, not owned.
	framePkt packet.Packet
}

// NewProcCtx returns a fresh worker context with the deterministic seed.
func NewProcCtx() *ProcCtx {
	return &ProcCtx{Ctx: Context{rng: rngSeed, Shard: -1}}
}

// ctxSeq numbers unique-stream contexts so no two share an rng stream.
var ctxSeq atomic.Uint64

// NewProcCtxUnique returns a worker context whose rng stream differs from
// every other context's (splitmix64 of a global counter). Pools that may
// drop and recreate contexts at arbitrary times must use this: restarting
// the fixed-seed stream mid-replay would re-deal the same coin-flip prefix
// and bias probabilistic rules. Batch replays that need reproducibility
// use NewProcCtx instead.
func NewProcCtxUnique() *ProcCtx {
	z := ctxSeq.Add(1) * 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = rngSeed
	}
	// The same splitmix output spreads unique contexts over the telemetry
	// counter stripes, so pool workers rarely share a counter cache line.
	return &ProcCtx{Ctx: Context{rng: z, Shard: -1}, stripe: uint32(z)}
}

// Reseed rewinds the context's rng to the fixed deterministic seed. A
// pooled context then behaves bit-identically to a fresh NewProcCtx — the
// coin-flip stream restarts from the same point — while its grown scratch
// buffers are retained, which is what makes the controller's sequential
// batch path both deterministic and allocation-free.
func (pc *ProcCtx) Reseed() { pc.Ctx.rng = rngSeed }

// reset re-arms the context for a new packet (or a recirculated copy: a
// fresh PHV), preserving the rng state.
func (pc *ProcCtx) reset(p *packet.Packet) {
	pc.Ctx.Pkt = p
	pc.Ctx.PrevResult = 0
	pc.Ctx.PrevOld = 0
	pc.Ctx.PrevNewFlow = false
	pc.Ctx.RunningMin = ^uint32(0)
}

// unitKeys returns a scratch slice for n compressed keys.
func (pc *ProcCtx) unitKeys(n int) []uint32 {
	if cap(pc.keyBuf) < n {
		pc.keyBuf = make([]uint32, n)
	}
	return pc.keyBuf[:n]
}

// Pipeline is an ordered set of CMU Groups sharing one RMT pipeline.
// Packets traverse groups in order; the per-packet Context threads the CMU
// result bus between them, which is what lets SuMax(Sum), Counter Braids,
// and the max-interval task span CMUs in different groups (§4).
//
// Spliced groups model the Appendix-E optimization: the triangle areas at
// the pipeline's ends form up to three additional CMU Groups reachable
// only by mirroring and recirculating a packet — measurement capacity
// bought with bandwidth. A packet is recirculated only when some spliced
// group has an enabled task matching it.
//
// Process interprets the mutable group/rule structures directly and is
// single-threaded (one internal ProcCtx). For the concurrent fast path,
// Compile the pipeline into an immutable Snapshot and process through
// that; the packet counters are atomic and shared by both paths.
type Pipeline struct {
	groups  []*Group
	spliced []*Group

	packets      atomic.Uint64
	recirculated atomic.Uint64
	packetOrder  atomic.Uint64
	pc           *ProcCtx

	// tele, when set, makes Compile attach telemetry to every snapshot:
	// durable per-rule hit counters, derived-counter lists, and digest
	// multipliers. Nil keeps the compiled path telemetry-free (teleSlot -1
	// everywhere). Set before the first Compile; the interpretive
	// Process/ProcessCtx path is not instrumented — the controller always
	// processes through snapshots.
	tele *telemetry.Registry
}

// NewPipeline builds a pipeline of n default-geometry CMU Groups.
func NewPipeline(n int) *Pipeline {
	p := &Pipeline{pc: NewProcCtx()}
	for i := 0; i < n; i++ {
		p.groups = append(p.groups, NewGroup(GroupConfig{ID: i}))
	}
	return p
}

// NewPipelineWith builds a pipeline from explicit groups.
func NewPipelineWith(groups ...*Group) *Pipeline {
	return &Pipeline{groups: groups, pc: NewProcCtx()}
}

// SetTelemetry attaches a telemetry registry: every subsequent Compile
// wires per-rule hit counters and packet/digest accounting into the
// snapshot it produces. Passing nil detaches.
func (pl *Pipeline) SetTelemetry(reg *telemetry.Registry) { pl.tele = reg }

// Telemetry returns the attached registry (nil when telemetry is off).
func (pl *Pipeline) Telemetry() *telemetry.Registry { return pl.tele }

// Groups returns the number of groups.
func (pl *Pipeline) Groups() int { return len(pl.groups) }

// Group returns group i.
func (pl *Pipeline) Group(i int) *Group { return pl.groups[i] }

// AddSpliced registers a spliced (mirror+recirculate) group. The number of
// spliced groups is bounded by the pipeline's triangle areas
// (PlanWithRecirculation's Mirrored count).
func (pl *Pipeline) AddSpliced(g *Group) error {
	if len(pl.spliced) >= StagesPerGroup-1 {
		return fmt.Errorf("core: pipeline already has %d spliced groups (Appendix E bound)", len(pl.spliced))
	}
	pl.spliced = append(pl.spliced, g)
	return nil
}

// SplicedGroups returns the number of spliced groups.
func (pl *Pipeline) SplicedGroups() int { return len(pl.spliced) }

// Process pushes one packet through every group in pipeline order, and —
// when a spliced group has an enabled task for it — mirrors and
// recirculates it through the spliced groups. Process uses the pipeline's
// own scratch context and must not be called concurrently; use
// ProcessCtx with per-worker contexts (or a compiled Snapshot) for that.
func (pl *Pipeline) Process(p *packet.Packet) {
	pl.ProcessCtx(pl.pc, p)
}

// ProcessCtx is Process with a caller-owned worker context.
func (pl *Pipeline) ProcessCtx(pc *ProcCtx, p *packet.Packet) {
	pl.packets.Add(1)
	pc.reset(p)
	for _, g := range pl.groups {
		g.Process(pc)
	}
	if len(pl.spliced) == 0 || !pl.splicedWants(p) {
		return
	}
	// The mirrored copy re-enters the pipeline: a fresh PHV.
	pl.recirculated.Add(1)
	pc.reset(p)
	for _, g := range pl.spliced {
		g.Process(pc)
	}
}

// splicedWants reports whether any enabled spliced-group task matches p —
// the mirror decision the first pass takes. Disabled (frozen) rules match
// no traffic, so they must not trigger a mirror either: a frozen spliced
// task costs no recirculation bandwidth.
func (pl *Pipeline) splicedWants(p *packet.Packet) bool {
	for _, g := range pl.spliced {
		for i := 0; i < g.CMUs(); i++ {
			for _, r := range g.CMU(i).Rules() {
				if !r.Disabled && r.Filter.Matches(p) {
					return true
				}
			}
		}
	}
	return false
}

// Packets returns the number of packets processed.
func (pl *Pipeline) Packets() uint64 { return pl.packets.Load() }

// Recirculated returns the number of packets mirrored through the spliced
// groups; Recirculated/Packets is the Appendix-E bandwidth overhead.
func (pl *Pipeline) Recirculated() uint64 { return pl.recirculated.Load() }

// PacketOrderFrames returns the number of frames the frame engine ran under
// a snapshot that is not frame-vectorised (Snapshot.FrameVectorized): one
// whose plan runs sampled rules or live spliced groups in a packet-order
// pass. PacketOrderFrames/Packets is the share of traffic that met such a
// pass.
func (pl *Pipeline) PacketOrderFrames() uint64 { return pl.packetOrder.Load() }

// FindTask locates a task's rule: it returns the group, CMU index and rule
// for every CMU carrying taskID.
type TaskLocation struct {
	Group *Group
	CMU   int
	Rule  *Rule
}

// Locate returns every CMU location where taskID is installed, in pipeline
// order (spliced groups last).
func (pl *Pipeline) Locate(taskID int) []TaskLocation {
	var out []TaskLocation
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			if r := g.CMU(i).RuleFor(taskID); r != nil {
				out = append(out, TaskLocation{Group: g, CMU: i, Rule: r})
			}
		}
	}
	return out
}

func (pl *Pipeline) allGroups() []*Group {
	if len(pl.spliced) == 0 {
		return pl.groups
	}
	all := make([]*Group, 0, len(pl.groups)+len(pl.spliced))
	all = append(all, pl.groups...)
	return append(all, pl.spliced...)
}

// ReadTask reads the register partitions of every CMU carrying taskID, in
// pipeline order (the control plane's register readout).
func (pl *Pipeline) ReadTask(taskID int) ([][]uint32, error) {
	locs := pl.Locate(taskID)
	if len(locs) == 0 {
		return nil, fmt.Errorf("core: task %d not installed", taskID)
	}
	out := make([][]uint32, 0, len(locs))
	for _, l := range locs {
		data, err := l.Group.CMU(l.CMU).ReadTask(taskID)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// RemoveTask uninstalls taskID from every CMU (spliced groups included).
// It reports how many rules were removed; register contents stay
// (CMU.RemoveRule).
func (pl *Pipeline) RemoveTask(taskID int) int {
	n := 0
	for _, g := range pl.allGroups() {
		for i := 0; i < g.CMUs(); i++ {
			if g.CMU(i).RemoveRule(taskID) {
				n++
			}
		}
	}
	return n
}
