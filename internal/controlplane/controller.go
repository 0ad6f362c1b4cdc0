package controlplane

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flymon/internal/analysis"
	"flymon/internal/core"
	"flymon/internal/core/algorithms"
	"flymon/internal/dataplane"
	"flymon/internal/metrics"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// ErrNoTask is wrapped by every operation addressed to a task ID that is
// not deployed, so callers (the control channel's error codes) can tell
// "already gone" from a failure.
var ErrNoTask = errors.New("no task")

// Task is a deployed measurement task.
type Task struct {
	ID        int
	Spec      TaskSpec
	Algorithm Algorithm
	D         int
	Groups    []int // pipeline group indices hosting the task
	Buckets   int   // granted buckets per row
	Delay     time.Duration
	// Fingerprint identifies the task's register layout — what its rows are
	// indexed by (see layoutFingerprint). Readouts of two controllers' tasks
	// merge element-wise iff their fingerprints are equal.
	Fingerprint uint64
	// Merge is the op readouts of the task combine under exactly, one
	// switch's with another's (core.MergeOp); OpNone when they do not.
	Merge dataplane.StatefulOp

	handle   interface{ Uninstall() }
	newMasks int // hash-mask rules this deployment installed
}

// MemoryBytes returns the register memory granted to the task.
func (t *Task) MemoryBytes() int {
	type sized interface{ MemoryBytes() int }
	if s, ok := t.handle.(sized); ok {
		return s.MemoryBytes()
	}
	return 0
}

// Controller is FlyMon's control plane: it owns the CMU pipeline, compiles
// task specs into runtime rules, places tasks onto CMU Groups greedily
// (preferring groups that already generate the needed compressed keys,
// §3.4), and manages register memory with power-of-two partitions.
type Controller struct {
	mu       sync.Mutex
	pipeline *core.Pipeline
	groups   []*core.Group       // regular groups, then spliced groups
	regular  int                 // count of regular (non-recirculated) groups
	allocs   [][]*BuddyAllocator // [group][cmu]

	// snap is the RCU-published compiled data-plane configuration. Every
	// control-plane mutation rebuilds it under mu and swaps the pointer;
	// the packet path only ever loads it, so reconfiguration never blocks
	// traffic (the paper's on-the-fly property).
	snap atomic.Pointer[core.Snapshot]
	// ctxFree lends Process and ProcessBatch their worker context, one per
	// call (borrowCtx, returnCtx), so the list holds as many contexts as
	// callers ever ran at once. ctxMu guards it.
	ctxMu   sync.Mutex
	ctxFree []*core.ProcCtx
	// workers is the controller's frame-drain pool: the caller of
	// ProcessFrameSource / ReplayTrace is its worker 0, and its other
	// workers start on the first drain and stop at Close.
	workers *core.WorkerPool

	// The register write policy, decided once from the worker count.
	// single: the pool has one worker, the sole writer of every register,
	// which updates buckets with plain stores (core.Pipeline.SetSingleWriter).
	// sharded: ShardedState with several workers — each writes private
	// cache-line-padded register lanes with plain stores and the control
	// plane reduces them on read. Neither: several workers share the buckets
	// through CAS and fetch-and-add. shardWorkers is the pool (and lane)
	// count.
	single       bool
	sharded      bool
	shardWorkers int

	// procGate is the one reader registry, in every mode: each span of a
	// pool drain holds it shared around load-the-snapshot-and-execute, and
	// so do Process and ProcessBatch with several workers. With one worker
	// it is also the single-writer contract: Process and ProcessBatch, being
	// writers too, hold it exclusive, and so does every read of live
	// registers (readHold, TelemetryDataPlane), so a plain store never
	// overlaps another writer or a reader. The control plane takes it
	// exclusive for a grace period (empty), the lane drain (lane loads are
	// plain) and ResetTaskCounters (the one clear of a live partition).
	// Lock order is always mu before procGate. graceWaited sums the time
	// grace periods waited for in-flight readers (under mu).
	procGate    sync.RWMutex
	graceWaited time.Duration
	// parked holds the ranges removals unlinked and published but have not
	// cleared yet: neither free nor granted, since their allocators still
	// count them used. settleLocked clears and frees them once no reader of
	// an older snapshot can remain (under mu).
	parked []parkedRange

	// tele is the runtime telemetry registry (nil = telemetry off).
	// version counts snapshot publications; retired is a short ring of
	// recently retired snapshots still absorbing straggler telemetry
	// flushes from pooled worker contexts — publishLocked and every
	// telemetry fold settle the ring (telemetry.go).
	tele    *telemetry.Registry
	version uint64
	retired []*core.Snapshot

	tasks  map[int]*Task
	nextID int

	// touched lists the groups written since the last publish (touch).
	touched []int

	// Mode selects accurate vs efficient memory allocation (§3.4).
	Mode MemoryMode
	// Delay is the rule-install latency model (Table 3).
	Delay DelayModel
	// Partitions is the per-CMU partition limit (32 in the prototype,
	// §5.1: "a CMU can be split into 32 memory partitions").
	Partitions int

	// tcamBudget caps per-group preparation-stage TCAM entries.
	tcamBudget int
}

// Config parameterizes controller construction.
type Config struct {
	Groups     int
	Buckets    int // per-CMU register buckets (0 = core default)
	BitWidth   int // register bucket width (0 = core default)
	Partitions int // partitions per CMU (0 = 32)
	Mode       MemoryMode

	// TCAMEntriesPerGroup caps a group's preparation-stage TCAM load
	// (address translation + task-specific transforms). 0 takes the
	// hardware default: 50% of one MAU stage (Fig. 8's preparation share).
	TCAMEntriesPerGroup int

	// SplicedGroups adds up to 3 Appendix-E groups reachable only by
	// mirror+recirculation. The placer uses them as a last resort: tasks
	// landing there cost bandwidth (Pipeline.Recirculated tracks it).
	SplicedGroups int

	// Workers is the one worker-count knob: it sizes the persistent pool
	// that drains every FrameSource (ProcessFrameSource, ReplayTrace) and
	// with it the register write policy (0 = GOMAXPROCS). One worker is the
	// sole writer of every register and updates it with plain stores;
	// Process, ProcessBatch and every query exclude it while they run.
	// Several workers share the buckets through CAS and fetch-and-add, or
	// write private lanes with ShardedState (one lane per worker).
	Workers int
	// ShardedState, with more than one worker, switches the pool workers'
	// register updates from shared CAS buckets to private per-worker lanes
	// for exactly-mergeable ops (Cond-ADD at the saturation bound, MAX,
	// AND-OR, XOR): workers write their own cache-line-padded lane with
	// plain stores and the control plane reduces lanes into shared state
	// before any readout. Ops whose merge would not be exact
	// (sub-saturation thresholds, result-bus consumers) transparently keep
	// the CAS path. Query results are identical in either mode; sharded
	// mode trades a drain pass per readout for a CAS-free packet path. With
	// one worker it changes nothing: the lone worker already stores plainly.
	ShardedState bool

	// Telemetry attaches a runtime telemetry registry: per-rule hit
	// counters wired into every compiled snapshot, a journal entry plus a
	// latency-histogram sample per reconfiguration, and register
	// occupancy/saturation gauges folded on scrape (the controller
	// registers itself as the registry's data-plane source). Nil keeps
	// the data plane entirely uninstrumented.
	Telemetry *telemetry.Registry
}

// DefaultTCAMEntriesPerGroup is the preparation stage's TCAM share: half of
// one MAU stage's 24 × 512 entries.
const DefaultTCAMEntriesPerGroup = dataplane.TCAMBlocksPerStage * dataplane.TCAMBlockEntries / 2

// NewController builds a controller over a fresh pipeline.
func NewController(cfg Config) *Controller {
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 32
	}
	if cfg.TCAMEntriesPerGroup <= 0 {
		cfg.TCAMEntriesPerGroup = DefaultTCAMEntriesPerGroup
	}
	if cfg.SplicedGroups < 0 {
		cfg.SplicedGroups = 0
	}
	if cfg.SplicedGroups > core.StagesPerGroup-1 {
		cfg.SplicedGroups = core.StagesPerGroup - 1
	}
	total := cfg.Groups + cfg.SplicedGroups
	groups := make([]*core.Group, total)
	for i := range groups {
		groups[i] = core.NewGroup(core.GroupConfig{ID: i, Buckets: cfg.Buckets, BitWidth: cfg.BitWidth})
		// Bootstrap configuration: every group's first compression unit
		// digests the full 5-tuple. Most tasks key on the 5-tuple, so the
		// greedy placer reuses this key and their deployment needs no
		// hash-mask rule at all — the paper's low per-algorithm deployment
		// delays (Table 3) rely on exactly this reuse.
		_ = groups[i].ConfigureUnit(0, packet.KeyFiveTuple)
	}
	pl := core.NewPipelineWith(groups[:cfg.Groups]...)
	for _, g := range groups[cfg.Groups:] {
		if err := pl.AddSpliced(g); err != nil {
			panic(err) // bounded above; unreachable
		}
	}
	c := &Controller{
		pipeline:   pl,
		groups:     groups,
		regular:    cfg.Groups,
		tasks:      make(map[int]*Task),
		nextID:     1,
		Mode:       cfg.Mode,
		Delay:      DefaultDelayModel(),
		Partitions: cfg.Partitions,
		tcamBudget: cfg.TCAMEntriesPerGroup,
	}
	for gi := 0; gi < total; gi++ {
		g := c.groups[gi]
		cmus := make([]*BuddyAllocator, g.CMUs())
		for ci := range cmus {
			size := g.CMU(ci).Register().Size()
			minBlock := size / cfg.Partitions
			if minBlock < 1 {
				minBlock = 1
			}
			// Round the minimum block to a power of two.
			mb := 1
			for mb < minBlock {
				mb <<= 1
			}
			cmus[ci] = NewBuddyAllocator(size, mb)
		}
		c.allocs = append(c.allocs, cmus)
	}
	c.shardWorkers = cfg.Workers
	if c.shardWorkers <= 0 {
		c.shardWorkers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.shardWorkers == 1:
		c.single = true
		pl.SetSingleWriter(true)
	case cfg.ShardedState:
		c.sharded = true
		// Lanes must exist before the first Compile so the snapshot's
		// routing verdicts see them.
		pl.EnableSharding(c.shardWorkers)
	}
	c.workers = core.NewWorkerPool(c.shardWorkers, c.sharded)
	c.tele = cfg.Telemetry
	if c.tele != nil {
		pl.SetTelemetry(c.tele)
		c.tele.SetSource(c)
	}
	c.publishLocked()
	return c
}

// publishLocked compiles the pipeline's current configuration and swaps in
// the new snapshot. Only the groups marked with touch since the last publish
// are compiled; every other group keeps the displaced snapshot's program
// (core.Pipeline.Recompile). Callers hold c.mu (or are the constructor,
// whose first publish compiles everything). The displaced snapshot joins
// the retired ring so its unsettled telemetry counts are folded into the
// durable counters (telemetry.go).
func (c *Controller) publishLocked() {
	next := c.pipeline.Recompile(c.snap.Load(), c.touched)
	c.touched = c.touched[:0]
	old := c.snap.Swap(next)
	c.version++
	if c.tele == nil {
		return
	}
	c.tele.SetVersion(c.version)
	if old != nil {
		c.retired = append(c.retired, old)
	}
	c.settleRetiredLocked()
}

// SnapshotVersion returns how many data-plane snapshots have been
// published (every mutation republishes; the constructor publishes v1).
func (c *Controller) SnapshotVersion() uint64 {
	c.lock()
	defer c.mu.Unlock()
	return c.version
}

// Republish recompiles every group and republishes the data-plane snapshot.
// The controller republishes automatically after every task-mutating call,
// recompiling only the groups the call wrote; Republish is needed after
// mutating the pipeline directly through Pipeline().
func (c *Controller) Republish() {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("republish")
	for gi := range c.groups {
		c.touch(gi)
	}
	c.publishLocked()
	done(0, "", nil)
}

// Pipeline exposes the data plane (the daemon feeds packets through it).
func (c *Controller) Pipeline() *core.Pipeline { return c.pipeline }

// Process pushes one packet through the data plane: it registers on
// procGate (enter), loads the RCU-published snapshot and executes against
// its frozen rule copies. It never waits for a control-channel operation's
// work (rule installs, freezes, memory moves) — the switch hardware
// property FlyMon's on-the-fly reconfiguration relies on; a pending grace
// period, lane drain or query holds it back only until the holders already
// in flight (one span at most) have left. With several workers packet
// callers hold the gate shared and never exclude each other; with one
// worker every packet caller is a plain-store writer and holds it
// exclusive, so concurrent callers take turns. Process is safe for
// concurrent callers.
func (c *Controller) Process(p *packet.Packet) {
	c.enter()
	snap := c.snap.Load()
	pc := c.borrowCtx()
	snap.Process(pc, p)
	c.returnCtx(pc)
	c.leave()
}

// borrowCtx lends a worker context from ctxFree, creating one (with a
// unique rng stream) only when every listed context is lent. returnCtx
// hands it back.
func (c *Controller) borrowCtx() *core.ProcCtx {
	c.ctxMu.Lock()
	defer c.ctxMu.Unlock()
	n := len(c.ctxFree)
	if n == 0 {
		return core.NewProcCtxUnique()
	}
	pc := c.ctxFree[n-1]
	c.ctxFree = c.ctxFree[:n-1]
	return pc
}

func (c *Controller) returnCtx(pc *core.ProcCtx) {
	c.ctxMu.Lock()
	c.ctxFree = append(c.ctxFree, pc)
	c.ctxMu.Unlock()
}

// enter registers a packet caller outside the pool on procGate: shared
// beside the pool's spans, exclusive at one worker, where the caller
// stores plainly and must be the only writer. leave releases it.
func (c *Controller) enter() {
	if c.single {
		c.procGate.Lock()
	} else {
		c.procGate.RLock()
	}
}

func (c *Controller) leave() {
	if c.single {
		c.procGate.Unlock()
	} else {
		c.procGate.RUnlock()
	}
}

// ProcessBatch pushes a packet slice through the data plane sequentially
// on one worker context, against one consistent snapshot. It is the
// sequential reference, kept on purpose beside the frame engine: the
// differential tests and the benchmark's set-up check compare
// ProcessFrameSource's registers against it, so it never routes through
// the pool. Product callers with more than one packet use
// ProcessFrameSource or ReplayTrace. The context is borrowed from the
// controller's free list with its rng rewound to the fixed seed, so identical
// batches replay identically — bit-for-bit what a fresh NewProcCtx would
// compute — while its scratch stays warm, keeping the per-batch path
// allocation-free.
func (c *Controller) ProcessBatch(ps []packet.Packet) {
	if len(ps) == 0 {
		return
	}
	c.enter()
	snap := c.snap.Load()
	pc := c.borrowCtx()
	pc.Reseed()
	snap.ProcessBatchCtx(pc, ps)
	c.returnCtx(pc)
	c.leave()
}

// ProcessFrameSource drains a pull-based frame source (the mmap replay
// cursor, internal/mmtrace) through the controller's persistent worker pool
// with the FrameView-native engine, returning when the source is
// exhausted: spans of raw mmapped records execute stage-at-a-time with no
// packet materialization; only the rules of a snapshot with spliced groups
// or probabilistic rules run frame by frame in packet order.
// Every worker reloads the RCU-published snapshot per span, so task
// deploys, freezes, and resizes issued mid-replay take effect at the next
// span boundary — replay behaves exactly like live traffic under
// on-the-fly reconfiguration.
//
// The caller is the pool's worker 0; concurrent calls take turns. With one
// worker the caller alone drains src, as every register's sole writer, and
// stores plainly. In sharded mode (Config.ShardedState, several workers)
// each pool worker owns a private register lane: compiled rules whose ops
// merge exactly write the lane with plain stores — no CAS, no contended
// counter — and the control plane reduces lanes into shared state before
// any readout. In every mode each span holds the procGate shared, so drains,
// grace periods and queries interleave with a long replay instead of
// stalling behind it.
func (c *Controller) ProcessFrameSource(src core.FrameSource) {
	c.workers.ProcessFrameSource(c.snap.Load, src, &c.procGate)
}

// ReplayTrace pushes one pass over t through the pool's Config.Workers
// workers and returns when every frame has executed — the one-call form of
// ProcessFrameSource for a caller that holds a whole trace (a mapped file,
// or packets encoded with mmtrace.FromPackets). With one worker the frames
// execute in trace order; with several, span order across workers is
// unspecified and commuting ops keep exact counts.
func (c *Controller) ReplayTrace(t *mmtrace.Trace) {
	c.workers.ReplayTrace(c.snap.Load, t, &c.procGate)
}

// drainShards folds every dirty register lane back into shared state so a
// control-plane read observes complete counts, returning the lane buckets
// folded. It holds the procGate exclusively for the scan (lane loads are
// plain; no span may overlap). Callers hold c.mu. No-op without lanes
// (shared mode) and when no span has written a lane since the last drain.
func (c *Controller) drainShards() int {
	if !c.sharded {
		return 0
	}
	start := time.Now()
	c.procGate.Lock()
	n := c.pipeline.DrainShards()
	c.procGate.Unlock()
	if c.tele != nil {
		c.tele.RecordDrain(n)
		// Includes the gate wait: a scrape's drain latency is the time a
		// reader stalls behind in-flight spans, which is the number that
		// matters operationally.
		c.tele.DrainLatency.Observe(time.Since(start))
	}
	return n
}

// DrainShards folds every dirty register lane into shared state and
// returns the number of lane buckets folded. Query methods drain
// automatically; this is for callers reading registers directly through
// Pipeline(). No-op (zero) without lanes; at one worker such a read must
// not overlap a replay at all (the worker stores plainly).
func (c *Controller) DrainShards() int {
	c.lock()
	defer c.mu.Unlock()
	return c.drainShards()
}

// grace waits until every reader that entered the packet path before the
// call has left it: an empty exclusive hold of the gate readers hold shared.
// Readers load the snapshot inside their hold, so after publishLocked and
// grace no reader still executes a snapshot older than the publish — what
// it unlinked is quiescent and may be read, cleared and re-granted with
// plain memory operations while traffic runs. Every range parked before
// the call is quiescent too, so grace frees it. Callers hold c.mu.
func (c *Controller) grace() {
	start := time.Now()
	c.procGate.Lock()
	c.procGate.Unlock() // the empty critical section is the barrier
	c.graceWaited += time.Since(start)
	c.freeParkedLocked()
}

// parkedRange is one row of a removed task's memory between its unlinking
// publish and its clear: group gi, CMU cmu, the partition mem.
type parkedRange struct {
	gi, cmu int
	mem     core.MemRange
}

// settleLocked clears and frees the parked ranges if no reader of the
// snapshots that unlinked them can remain, without waiting for one: every
// such reader entered procGate before the unlinking publish, so an
// exclusive TryLock that succeeds proves they have all left. It fails
// while any reader is in flight (a span, or a Process or ProcessBatch
// call); the ranges then stay parked for the next call or grace. Callers
// hold c.mu.
func (c *Controller) settleLocked() {
	if len(c.parked) == 0 || !c.procGate.TryLock() {
		return
	}
	c.procGate.Unlock()
	c.freeParkedLocked()
}

// freeParkedLocked zeroes every parked range's buckets and lanes with plain
// bulk clears and returns it to its allocator. Callers hold c.mu and have
// proven the ranges quiescent (settleLocked, grace).
func (c *Controller) freeParkedLocked() {
	for _, p := range c.parked {
		c.groups[p.gi].CMU(p.cmu).Register().ClearRange(p.mem.Base, p.mem.Buckets)
		if err := c.allocs[p.gi][p.cmu].Free(p.mem.Base); err != nil {
			// A parked range is a partition its task was granted.
			panic(err)
		}
	}
	c.parked = c.parked[:0]
}

// lock takes c.mu for a control-plane call and settles what earlier
// removals parked, when it can do so without waiting.
func (c *Controller) lock() {
	c.mu.Lock()
	c.settleLocked()
}

// readHold makes the live registers readable for a control-plane query
// and reports whether the caller must release procGate (Unlock) after
// reading. With one worker the writer stores plainly, so the read holds
// the gate exclusive; with lanes, dirty lanes are folded into the base
// first (drainShards) and the base is read beside the writers, as shared
// buckets always are. Callers hold c.mu.
func (c *Controller) readHold() bool {
	if c.single {
		c.procGate.Lock()
		return true
	}
	c.drainShards()
	return false
}

// Sharded reports whether the controller runs the sharded lane engine:
// Config.ShardedState with more than one worker. One worker has no lanes.
func (c *Controller) Sharded() bool { return c.sharded }

// Workers returns the controller's pool width (the lane count in sharded
// mode) — the consumer count a Replayer feeding ProcessFrameSource needs.
func (c *Controller) Workers() int { return c.shardWorkers }

// Close stops the worker pool's goroutines, after the drain in flight if
// there is one. The controller stays usable: a ProcessFrameSource or
// ReplayTrace after Close runs on its caller alone and starts nothing.
func (c *Controller) Close() { c.workers.Close() }

// Tasks returns deployed tasks sorted by ID.
func (c *Controller) Tasks() []*Task {
	c.lock()
	defer c.mu.Unlock()
	out := make([]*Task, 0, len(c.tasks))
	for _, t := range c.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Task returns the deployed task with the given ID.
func (c *Controller) Task(id int) (*Task, error) {
	c.lock()
	defer c.mu.Unlock()
	return c.taskLocked(id)
}

func (c *Controller) taskLocked(id int) (*Task, error) {
	t, ok := c.tasks[id]
	if !ok {
		return nil, fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	return t, nil
}

// AddTask compiles and deploys a task spec, returning the deployed task
// with its modeled deployment delay. Deployment installs runtime rules
// only — running traffic and co-resident tasks are untouched, and nothing
// waits for a reader: free memory is already zero (reclaimLocked) and a
// rolled-back placement probe never had a published rule. The one wait is
// a placement that fits only in memory a removal parked beside a running
// span: it waits that span out (grace) and takes the memory cleared.
func (c *Controller) AddTask(spec TaskSpec) (*Task, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("deploy")
	t, err := c.addTaskLocked(spec)
	tid := -1
	if t != nil {
		tid = t.ID
	}
	done(tid, spec.Name, err)
	return t, err
}

func (c *Controller) addTaskLocked(spec TaskSpec) (*Task, error) {
	alg := spec.ChooseAlgorithm()
	d := spec.D
	if d == 0 {
		d = DefaultD(alg)
	}
	id := c.nextID

	task, err := c.place(id, spec, alg, d)
	if err != nil && len(c.parked) > 0 {
		// It may fit only in parked memory: wait out the spans that can
		// still write it (grace frees it) and place again.
		c.grace()
		task, err = c.place(id, spec, alg, d)
	}
	if err != nil {
		return nil, err
	}
	c.nextID++
	c.tasks[id] = task
	locs := c.locate(task)
	task.Delay = c.Delay.Delay(c.countRules(task, locs))
	task.Fingerprint = layoutFingerprint(locs)
	task.Merge = core.MergeOp(locs)
	c.publishLocked()
	return task, nil
}

// place admits candidate placements in greedy preference order and installs
// the first one the admission check accepts. A rejected candidate costs a
// few comparisons and writes nothing; an install that fails on something
// the check cannot predict (compression units, the TCAM budget) is rolled
// back without a trace and the next candidate is tried.
func (c *Controller) place(id int, spec TaskSpec, alg Algorithm, d int) (*Task, error) {
	need := alg.GroupsNeeded(d)
	if need > c.regular {
		return nil, fmt.Errorf("controlplane: %s needs %d groups, pipeline has %d", alg, need, c.regular)
	}
	rows := rowsFor(alg, d, c.groups[0].CMU(0).Register().BitWidth())

	// Candidate starting groups, preferring groups that already produce
	// the task's compressed key (§3.4 greedy strategy). Spliced
	// (recirculated) groups host only single-group tasks and come last:
	// they cost bandwidth (Appendix E).
	order := make([]int, 0, len(c.groups))
	for _, reuse := range [2]bool{true, false} {
		for gi := 0; gi+need <= c.regular; gi++ {
			if (c.groups[gi].FindUnit(spec.Key) >= 0) == reuse {
				order = append(order, gi)
			}
		}
	}
	if need == 1 {
		for gi := c.regular; gi < len(c.groups); gi++ {
			order = append(order, gi)
		}
	}

	var firstErr error
	for _, gi := range order {
		// A single-group task using fewer rows than the group has CMUs can
		// start at any offset — this is what lets three d=1 tasks per
		// partition level share one group (the 96-task figure, §5.1).
		offsets := 1
		if need == 1 {
			offsets = c.groups[gi].CMUs() - rows + 1
		}
		for off := 0; off < offsets; off++ {
			err := c.admit(gi, off, id, spec, need, rows)
			if err == nil {
				var task *Task
				if task, err = c.installSpan(gi, off, id, spec, alg, d, need, rows); err == nil {
					return task, nil
				}
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("controlplane: no placement for %s", alg)
	}
	return nil, fmt.Errorf("controlplane: cannot place task %q (%s): %w", spec.Name, alg, firstErr)
}

// rowsFor is the number of rows — register partitions, one rule each — an
// algorithm of depth d installs over bitWidth-bit buckets.
func rowsFor(alg Algorithm, d, bitWidth int) int {
	switch alg {
	case AlgMRAC, AlgHLL, AlgLinearCounting:
		return 1
	case AlgCounterBraids:
		return 2
	case AlgMaxInterval:
		return 3
	case AlgTower:
		return len(towerWidths(bitWidth, d))
	default:
		return d
	}
}

// rowAt locates row i of a candidate placement: consecutive CMUs of group
// gi from offset off, or CMU 0 of consecutive groups for a multi-group
// algorithm.
func rowAt(gi, off, i, need int) (group, cmu int) {
	if need > 1 {
		return gi + i, 0
	}
	return gi, off + i
}

// admit is the placer's read-only admission check for one candidate: can
// every row's allocator grant the partition, and may the task's filter join
// every row's CMU under the one-access-per-packet rule? Its error is the one
// installSpan would fail with, checked in the same order — memory for every
// row, then the rules.
func (c *Controller) admit(gi, off, id int, spec TaskSpec, need, rows int) error {
	for i := 0; i < rows; i++ {
		g, cmu := rowAt(gi, off, i, need)
		a := c.allocs[g][cmu]
		if err := a.Admit(c.Mode.PartitionFor(spec.MemBuckets, a.minBlock, a.Size())); err != nil {
			return err
		}
	}
	for i := 0; i < rows; i++ {
		g, cmu := rowAt(gi, off, i, need)
		if err := c.groups[g].CMU(cmu).Admit(id, spec.Filter); err != nil {
			return err
		}
	}
	return nil
}

// installSpan allocates the rows of an admitted candidate and installs the
// algorithm there. A failure rolls everything back — partitions, rules and
// any compression unit the installer configured — so a failed install
// leaves the pipeline as it found it.
func (c *Controller) installSpan(gi, off, id int, spec TaskSpec, alg Algorithm,
	d, need, rowCount int) (*Task, error) {
	groups := c.groups[gi : gi+need : gi+need]
	groupIdx := make([]int, need)
	for j, g := range groups {
		groupIdx[j] = g.ID()
		c.touch(g.ID())
	}
	// The units the groups digest before the install: newMasks counts the
	// ones the install configures, a rollback restores them.
	var before []packet.KeySpec
	for _, g := range groups {
		for u := 0; u < g.Units(); u++ {
			before = append(before, g.UnitSpec(u))
		}
	}

	rows := make([]core.MemRange, rowCount)
	granted := 0
	var err error
	for ; granted < rowCount; granted++ {
		g, cmu := rowAt(gi, off, granted, need)
		a := c.allocs[g][cmu]
		base, got, aerr := a.Alloc(c.Mode.PartitionFor(spec.MemBuckets, a.minBlock, a.Size()))
		if aerr != nil {
			err = aerr
			break
		}
		rows[granted] = core.MemRange{Base: base, Buckets: got}
	}
	var handle interface{ Uninstall() }
	if err == nil {
		handle, err = c.installAlgorithm(groups, id, spec, alg, d, rows, off)
	}
	if err == nil {
		// Resource manager: the deployment must fit every touched group's
		// preparation-stage TCAM budget (address translation + transforms).
		for _, g := range groups {
			if used := c.groupTCAMEntries(g); used > c.tcamBudget {
				err = fmt.Errorf("controlplane: group %d TCAM load %d exceeds budget %d",
					g.ID(), used, c.tcamBudget)
				handle.Uninstall()
				break
			}
		}
	}
	newMasks, k := 0, 0
	for _, g := range groups {
		for u := 0; u < g.Units(); u++ {
			if now := g.UnitSpec(u); !now.Equal(before[k]) {
				newMasks++
				if err != nil {
					_ = g.ConfigureUnit(u, before[k])
				}
			}
			k++
		}
	}
	if err != nil {
		for i := 0; i < granted; i++ {
			g, cmu := rowAt(gi, off, i, need)
			_ = c.allocs[g][cmu].Free(rows[i].Base)
		}
		return nil, err
	}
	return &Task{
		ID: id, Spec: spec, Algorithm: alg, D: d,
		Groups: groupIdx, Buckets: rows[rowCount-1].Buckets, handle: handle,
		newMasks: newMasks,
	}, nil
}

// locate returns the task's rule locations in pipeline order, as
// Pipeline.Locate does, scanning only the groups the task was placed on.
func (c *Controller) locate(t *Task) []core.TaskLocation {
	locs := make([]core.TaskLocation, 0, len(t.Groups)*core.CMUsPerGroup)
	for _, gi := range t.Groups {
		g := c.groups[gi]
		for ci := 0; ci < g.CMUs(); ci++ {
			if r := g.CMU(ci).RuleFor(t.ID); r != nil {
				locs = append(locs, core.TaskLocation{Group: g, CMU: ci, Rule: r})
			}
		}
	}
	return locs
}

// touch marks group gi as changed since the last publish: publishLocked
// recompiles the marked groups and reuses every other group's program.
// Every path that writes a group's rules or units marks it.
func (c *Controller) touch(gi int) {
	if !slices.Contains(c.touched, gi) {
		c.touched = append(c.touched, gi)
	}
}

// installAlgorithm dispatches to the algorithm installers.
func (c *Controller) installAlgorithm(groups []*core.Group, id int, spec TaskSpec,
	alg Algorithm, d int, rows []core.MemRange, offset int) (interface{ Uninstall() }, error) {
	g := groups[0]
	param := c.paramSource(spec)
	switch alg {
	case AlgCMS:
		t, err := algorithms.InstallCMS(g, id, spec.Filter, spec.Key, param, d, rows, offset)
		if err != nil {
			return nil, err
		}
		c.applyProb(id, spec.Prob)
		return t, nil
	case AlgSuMaxSum:
		t, err := algorithms.InstallSuMaxSum(groups, id, spec.Filter, spec.Key, param, rows)
		if err != nil {
			return nil, err
		}
		c.applyProb(id, spec.Prob)
		return t, nil
	case AlgMRAC:
		return algorithms.InstallMRAC(g, id, spec.Filter, spec.Key, rows[:1], offset)
	case AlgTower:
		widths := towerWidths(g.CMU(offset).Register().BitWidth(), d)
		return algorithms.InstallTower(g, id, spec.Filter, spec.Key, widths, rows[:len(widths)], offset)
	case AlgCounterBraids:
		B := g.CMU(offset).Register().BitWidth()
		return algorithms.InstallCounterBraids(g, id, spec.Filter, spec.Key, B/2, B, rows[:2], offset)
	case AlgBeauCoup:
		return algorithms.InstallBeauCoup(g, id, spec.Filter, spec.Key, spec.Param.Key,
			spec.Threshold, d, rows, offset)
	case AlgHLL:
		return algorithms.InstallHLL(g, id, spec.Filter, spec.Param.Key, rows[0], offset)
	case AlgLinearCounting:
		return algorithms.InstallLinearCounting(g, id, spec.Filter, spec.Param.Key, rows[:1], offset)
	case AlgBloom:
		return algorithms.InstallBloom(g, id, spec.Filter, spec.Param.Key, d, true, rows, offset)
	case AlgSuMaxMax:
		return algorithms.InstallSuMaxMax(g, id, spec.Filter, spec.Key, param, d, rows, offset)
	case AlgMaxInterval:
		return algorithms.InstallMaxInterval([3]*core.Group{groups[0], groups[1], groups[2]},
			id, spec.Filter, spec.Key, rows)
	default:
		return nil, fmt.Errorf("controlplane: algorithm %s not installable", alg)
	}
}

// applyProb sets probabilistic execution on every installed rule of a task.
func (c *Controller) applyProb(id int, prob float64) {
	if prob <= 0 || prob >= 1 {
		return
	}
	for _, loc := range c.pipeline.Locate(id) {
		loc.Rule.Prob = prob
	}
}

func (c *Controller) paramSource(spec TaskSpec) core.ParamSource {
	switch spec.Param.Kind {
	case ParamPacketBytes:
		return core.PacketSize()
	case ParamQueueLength:
		return core.QueueLength()
	case ParamQueueDelay:
		return core.QueueDelay()
	default:
		return core.Const(1)
	}
}

// towerWidths returns descending counter widths for a d-level tower over
// B-bit buckets (e.g. B=16, d=3 → 8, 4, 2, matching Appendix D).
func towerWidths(B, d int) []int {
	out := make([]int, 0, d)
	w := B / 2
	for i := 0; i < d && w >= 2; i++ {
		out = append(out, w)
		w /= 2
	}
	if len(out) == 0 {
		out = []int{B}
	}
	return out
}

// countRules tallies the runtime rules task deployment installed, for the
// delay model.
func (c *Controller) countRules(t *Task, locs []core.TaskLocation) RuleCount {
	var rc RuleCount
	rc.Common = 1 // task filter / task-id assignment
	for _, loc := range locs {
		rc.Common += 2 // key+param selection (init) and operation selection
		reg := loc.Group.CMU(loc.CMU).Register()
		parts := core.PartitionsOf(reg.Size(), loc.Rule.Mem.Buckets)
		rc.TCAMEntries += core.TCAMTranslationEntries(parts)
		rc.TCAMEntries += loc.Rule.Prep.TCAMEntries()
	}
	rc.HashMasks = t.newMasks
	return rc
}

// RemoveTask uninstalls a task and returns its memory, zeroed, to the
// allocator. Removal is a rule deletion — traffic continues, and the call
// waits for no reader: it unlinks and publishes, and its memory is parked
// until no reader of an older snapshot can remain, then cleared and freed
// (reclaimLocked). Beside a running span that happens at a later op, so
// no reader that began before RemoveTask returned can write memory the
// allocator grants afterwards.
func (c *Controller) RemoveTask(id int) error {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("remove")
	_, err := c.reclaimLocked(id, false)
	done(id, "", err)
	return err
}

// reclaimLocked is the one way a task's memory returns to the allocator,
// in RCU order: unlink the rules, publish, and park the partitions; only
// once no reader of an older snapshot can remain are they touched — zeroed
// with plain bulk clears, buckets and lanes, and freed. Parked memory is
// neither free nor granted. Without read, the ranges settle at once when
// no reader is in flight (settleLocked) and otherwise at the first call
// that finds none, or at the next grace (a freeze, a resize, a placement
// that needs them). With read, reclaimLocked waits out the readers itself
// (grace), folds the partitions' lanes and copies them out (ResizeTask's
// result) before they are parked and freed. This keeps the invariant
// every grant relies on: each bucket and lane entry outside a granted or
// parked partition is zero, and no reader that began before a reclaiming
// mutation returned writes memory granted after it.
func (c *Controller) reclaimLocked(id int, read bool) (old [][]uint32, err error) {
	t, ok := c.tasks[id]
	if !ok {
		return nil, fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	locs := c.locate(t) // before the rules disappear
	t.handle.Uninstall()
	delete(c.tasks, id)
	// The task's per-rule counters go with it — a re-add (resize keeps the
	// ID) re-registers fresh counters at the new coordinates.
	if c.tele != nil {
		c.tele.DropTask(id)
	}
	for _, loc := range locs {
		c.touch(loc.Group.ID())
	}
	c.publishLocked()
	if read {
		c.grace()
		folded := 0
		for _, loc := range locs {
			reg, mem := loc.Group.CMU(loc.CMU).Register(), loc.Rule.Mem
			// Quiescent: one plain copy, no atomic loads.
			folded += reg.DrainRange(loc.Rule.Op, mem.Base, mem.Buckets)
			row := make([]uint32, mem.Buckets)
			reg.CopyRange(row, mem.Base)
			old = append(old, row)
		}
		if folded > 0 && c.tele != nil {
			c.tele.RecordDrain(folded)
		}
	}
	for _, loc := range locs {
		c.parked = append(c.parked, parkedRange{loc.Group.ID(), loc.CMU, loc.Rule.Mem})
	}
	if read {
		c.freeParkedLocked() // quiescent since the grace
	} else {
		c.settleLocked()
	}
	return old, nil
}

// ResizeTask reallocates a task's memory (§6, memory reallocation
// strategy): withdraw the old instance, read its partitions out once they
// are quiescent, reclaim them, and deploy a fresh instance of the new size
// under the same ID (placement is exactly remove-then-add). The counters
// restart; old is the final state of the old partitions, lanes folded —
// no in-flight reader can still be adding to it.
func (c *Controller) ResizeTask(id, newBuckets int) (old [][]uint32, err error) {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("resize")
	defer func() { done(id, fmt.Sprintf("buckets=%d", newBuckets), err) }()
	t, ok := c.tasks[id]
	if !ok {
		return nil, fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	origSpec := t.Spec
	spec := origSpec
	spec.MemBuckets = newBuckets
	if old, err = c.reclaimLocked(id, true); err != nil {
		return nil, err
	}
	// Re-add under the same ID.
	defer func(next int) { c.nextID = next }(c.nextID)
	c.nextID = id
	if _, err = c.addTaskLocked(spec); err != nil {
		// The new size does not fit: restore the original deployment so a
		// failed resize never destroys the task.
		if _, rerr := c.addTaskLocked(origSpec); rerr != nil {
			return old, fmt.Errorf("controlplane: resize of task %d failed (%v) and restore failed: %w", id, err, rerr)
		}
		return old, fmt.Errorf("controlplane: resize of task %d failed: %w", id, err)
	}
	return old, nil
}

// FreezeTask withdraws a task's data-plane rules so it stops matching
// traffic while its register partitions stay allocated and readable —
// the paper's freeze-and-divert strategy (§6). Frozen tasks still answer
// control-plane queries. FreezeTask ends with a grace period, so when it
// returns no reader can still match the task: the frozen copy is immutable
// until it is thawed or removed.
func (c *Controller) FreezeTask(id int) error {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("freeze")
	locs := c.pipeline.Locate(id)
	if len(locs) == 0 {
		err := fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
		done(id, "", err)
		return err
	}
	for _, loc := range locs {
		loc.Rule.Disabled = true
		c.touch(loc.Group.ID())
	}
	c.publishLocked()
	c.grace()
	done(id, "", nil)
	return nil
}

// ThawTask re-enables a frozen task after verifying no live rule with
// intersecting traffic now shares its CMUs (a task deployed into the
// frozen task's traffic slice in the meantime makes thawing unsafe).
func (c *Controller) ThawTask(id int) (err error) {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("thaw")
	defer func() { done(id, "", err) }()
	locs := c.pipeline.Locate(id)
	if len(locs) == 0 {
		return fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	for _, loc := range locs {
		for _, other := range loc.Group.CMU(loc.CMU).Rules() {
			if other.TaskID == id || other.Disabled {
				continue
			}
			if other.Filter.Intersects(loc.Rule.Filter) {
				return fmt.Errorf("controlplane: cannot thaw task %d: task %d now covers its traffic on group %d CMU %d",
					id, other.TaskID, loc.Group.ID(), loc.CMU)
			}
		}
	}
	for _, loc := range locs {
		loc.Rule.Disabled = false
		c.touch(loc.Group.ID())
	}
	c.publishLocked()
	return nil
}

// SplitTask replaces a task with two subtasks whose filters partition the
// original's traffic by source prefix (§3.1.1: splitting a heavy task
// halves each subtask's flow population, cutting compressed-key collision
// rates at the cost of a second task's resources). Each subtask keeps the
// original's memory request. The original task is removed; the subtasks
// get fresh IDs.
func (c *Controller) SplitTask(id int) (lo, hi *Task, err error) {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("split")
	defer func() {
		detail := ""
		if lo != nil && hi != nil {
			detail = fmt.Sprintf("into=%d,%d", lo.ID, hi.ID)
		}
		done(id, detail, err)
	}()
	t, ok := c.tasks[id]
	if !ok {
		return nil, nil, fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	loF, hiF, ok := t.Spec.Filter.SplitSrc()
	if !ok {
		return nil, nil, fmt.Errorf("controlplane: task %d filter %q cannot split further", id, t.Spec.Filter)
	}
	spec := t.Spec
	if _, err := c.reclaimLocked(id, false); err != nil {
		return nil, nil, err
	}
	loSpec, hiSpec := spec, spec
	loSpec.Name, loSpec.Filter = spec.Name+"-a", loF
	hiSpec.Name, hiSpec.Filter = spec.Name+"-b", hiF
	lo, err = c.addTaskLocked(loSpec)
	if err != nil {
		return nil, nil, fmt.Errorf("controlplane: split of task %d: %w", id, err)
	}
	hi, err = c.addTaskLocked(hiSpec)
	if err != nil {
		// Roll back to a consistent state: keep the lo subtask deployed
		// (it covers half the original traffic) but report the failure.
		return lo, nil, fmt.Errorf("controlplane: split of task %d: second subtask: %w", id, err)
	}
	return lo, hi, nil
}

// groupTCAMEntries sums a group's preparation-stage TCAM load.
func (c *Controller) groupTCAMEntries(g *core.Group) int {
	total := 0
	for ci := 0; ci < g.CMUs(); ci++ {
		cmu := g.CMU(ci)
		for _, rule := range cmu.Rules() {
			parts := core.PartitionsOf(cmu.Register().Size(), rule.Mem.Buckets)
			total += core.TCAMTranslationEntries(parts) + rule.Prep.TCAMEntries()
		}
	}
	return total
}

// GroupReport is one CMU Group's runtime-resource occupancy as seen by the
// control plane — what an operator inspects before placing a new task.
type GroupReport struct {
	Group int
	// Keys lists the key specs the group's compression units currently
	// digest ("" = idle unit).
	Keys []string
	// Rules is the number of task rules installed across the group's CMUs.
	Rules int
	// TCAMEntries is the preparation-stage TCAM load: per-task address
	// translation plus task-specific transform entries.
	TCAMEntries int
	// FreeBuckets is the unallocated register memory per CMU.
	FreeBuckets []int
	// Tasks lists the task IDs with at least one rule in the group.
	Tasks []int
}

// ResourceReport summarizes every group's occupancy.
func (c *Controller) ResourceReport() []GroupReport {
	c.lock()
	defer c.mu.Unlock()
	out := make([]GroupReport, 0, len(c.groups))
	for gi := range c.groups {
		g := c.groups[gi]
		r := GroupReport{Group: gi}
		for u := 0; u < g.Units(); u++ {
			spec := g.UnitSpec(u)
			if len(spec.Parts) == 0 {
				r.Keys = append(r.Keys, "")
			} else {
				r.Keys = append(r.Keys, spec.String())
			}
		}
		seen := map[int]bool{}
		for ci := 0; ci < g.CMUs(); ci++ {
			cmu := g.CMU(ci)
			r.FreeBuckets = append(r.FreeBuckets, c.allocs[gi][ci].FreeBuckets())
			for _, rule := range cmu.Rules() {
				r.Rules++
				parts := core.PartitionsOf(cmu.Register().Size(), rule.Mem.Buckets)
				r.TCAMEntries += core.TCAMTranslationEntries(parts) + rule.Prep.TCAMEntries()
				seen[rule.TaskID] = true
			}
		}
		for id := range seen {
			r.Tasks = append(r.Tasks, id)
		}
		sort.Ints(r.Tasks)
		out = append(out, r)
	}
	return out
}

// FreeBuckets returns the unallocated buckets of every CMU, indexed
// [group][cmu].
func (c *Controller) FreeBuckets() [][]int {
	c.lock()
	defer c.mu.Unlock()
	out := make([][]int, len(c.allocs))
	for gi, cmus := range c.allocs {
		out[gi] = make([]int, len(cmus))
		for ci, a := range cmus {
			out[gi][ci] = a.FreeBuckets()
		}
	}
	return out
}

// --- Query interface (control-plane readout + analysis) ---
//
// Every query reads inside readHold: with one worker it excludes the
// plain-store writer for the read; in sharded mode it drains dirty lanes
// first, so readouts observe complete, merged counts — identical to what
// the shared-CAS mode reports. The drain is skipped entirely when no batch
// ran since the last drain.

// EstimateKey returns the task's per-key estimate (frequency, max, or
// distinct count depending on the algorithm).
func (c *Controller) EstimateKey(id int, k packet.CanonicalKey) (v float64, err error) {
	err = c.answer(id, func(r algorithms.Readout) (err error) {
		v, err = r.EstimateKey(k)
		return err
	})
	return v, err
}

// Cardinality returns a distinct-count task's whole-traffic estimate.
func (c *Controller) Cardinality(id int) (v float64, err error) {
	err = c.answer(id, func(r algorithms.Readout) (err error) {
		v, err = r.Cardinality()
		return err
	})
	return v, err
}

// Contains reports Bloom-filter membership for key k.
func (c *Controller) Contains(id int, k packet.CanonicalKey) (in bool, err error) {
	err = c.answer(id, func(r algorithms.Readout) (err error) {
		in, err = r.Contains(k)
		return err
	})
	return in, err
}

// Reported returns the candidates a detection task reports.
func (c *Controller) Reported(id int, candidates []packet.CanonicalKey) (out map[packet.CanonicalKey]bool, err error) {
	err = c.answer(id, func(r algorithms.Readout) (err error) {
		out, err = r.Reported(candidates)
		return err
	})
	return out, err
}

// answer asks one typed question of a task's live registers, inside
// readHold, through the algorithm's one decoder (algorithms.Readout) —
// the code a fleet's epoch artifact answers through from merged rows.
func (c *Controller) answer(id int, ask func(algorithms.Readout) error) error {
	c.lock()
	defer c.mu.Unlock()
	if c.readHold() {
		defer c.procGate.Unlock()
	}
	t, err := c.taskLocked(id)
	if err != nil {
		return err
	}
	if err := ask(algorithms.Bind(t.handle, nil, t.Spec.Threshold)); err != nil {
		return fmt.Errorf("controlplane: task %d (%s): %w", id, t.Algorithm, err)
	}
	return nil
}

// Distribution returns an MRAC task's estimated flow-size distribution and
// entropy. Only the counter readout holds the controller; the estimation
// runs beside live traffic.
func (c *Controller) Distribution(id int) (map[uint64]float64, float64, error) {
	counters, err := c.mracCounters(id)
	if err != nil {
		return nil, 0, err
	}
	dist := analysis.MRACDistribution(counters, 1024, 10)
	return dist, metrics.EntropyFromDistribution(dist), nil
}

func (c *Controller) mracCounters(id int) ([]uint32, error) {
	c.lock()
	defer c.mu.Unlock()
	if c.readHold() {
		defer c.procGate.Unlock()
	}
	t, err := c.taskLocked(id)
	if err != nil {
		return nil, err
	}
	h, ok := t.handle.(*algorithms.MRACTask)
	if !ok {
		return nil, fmt.Errorf("controlplane: task %d (%s) is not a distribution task", id, t.Algorithm)
	}
	return h.Counters()
}

// ReadRegisters reads a task's raw register partitions.
func (c *Controller) ReadRegisters(id int) ([][]uint32, error) {
	c.lock()
	defer c.mu.Unlock()
	if c.readHold() {
		defer c.procGate.Unlock()
	}
	return c.pipeline.ReadTask(id)
}

// ResetTaskCounters zeroes a task's register partitions — the epoch
// rollover every sketch-based system performs between measurement windows.
// The partitions stay live (their rules keep matching), so this one clear
// excludes the packet path — the gate held exclusive — instead of waiting
// it out.
func (c *Controller) ResetTaskCounters(id int) error {
	c.lock()
	defer c.mu.Unlock()
	done := c.teleMutation("reset")
	locs := c.pipeline.Locate(id)
	if len(locs) == 0 {
		err := fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
		done(id, "", err)
		return err
	}
	c.procGate.Lock()
	for _, loc := range locs {
		loc.Group.CMU(loc.CMU).Register().ClearRange(loc.Rule.Mem.Base, loc.Rule.Mem.Buckets)
	}
	c.procGate.Unlock()
	done(id, "", nil)
	return nil
}

// TaskHandle exposes the installed algorithm object for a task (the typed
// query surface used by the experiment harness). The handle reads the live
// registers directly, outside every controller hold: a read concurrent
// with a replay or with Process is the caller's to synchronise — with one
// worker such a read races the worker's plain stores. The controller's own
// queries take that exclusion for the caller.
func (c *Controller) TaskHandle(id int) (any, error) {
	c.lock()
	defer c.mu.Unlock()
	if c.readHold() {
		defer c.procGate.Unlock()
	}
	t, err := c.taskLocked(id)
	if err != nil {
		return nil, err
	}
	return t.handle, nil
}
