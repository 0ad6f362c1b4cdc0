package controlplane

import (
	"errors"
	"fmt"
	"runtime"
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
	// ctxPool recycles per-worker scratch contexts for the packet path.
	ctxPool sync.Pool
	// workers is the controller's persistent frame-drain pool, started
	// lazily on the first ProcessFrameSource / ReplayTrace call and reused
	// for every drain thereafter (no per-call goroutine spawning). Closed
	// by Close.
	workers atomic.Pointer[core.WorkerPool]

	// sharded enables the mergeable-op lane engine: pool workers write
	// private cache-line-padded register lanes with plain stores and the
	// control plane reduces them on read. shardWorkers is the lane (and
	// pool) count.
	sharded      bool
	shardWorkers int
	shardCtr     metrics.ShardCounters

	// procGate is the one reader registry, in every mode: each packet entry
	// point (Process, ProcessBatch, every span of a pool drain) holds it
	// shared around load-the-snapshot-and-execute. The control plane takes
	// it exclusive for a grace period (empty), the lane drain (lane loads
	// are plain) and ResetTaskCounters (the one clear of a live partition).
	// Lock order is always mu before procGate. graceWaited sums the time
	// grace periods waited for in-flight readers (under mu).
	procGate    sync.RWMutex
	graceWaited time.Duration

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
	// that drains every FrameSource (ProcessFrameSource, ReplayTrace) and,
	// in sharded mode, the per-register lane count (0 = GOMAXPROCS).
	Workers int
	// ShardedState switches the pool workers' register updates from shared
	// CAS buckets to private per-worker lanes for exactly-mergeable ops
	// (Cond-ADD at the saturation bound, MAX, AND-OR, XOR): workers write
	// their own cache-line-padded lane with plain stores and the control
	// plane reduces lanes into shared state before any readout. Ops whose
	// merge would not be exact (sub-saturation thresholds, result-bus
	// consumers) transparently keep the CAS path. Query results are
	// identical in either mode; sharded mode trades a drain pass per
	// readout for a CAS-free packet path.
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
	if cfg.ShardedState {
		c.sharded = true
		// Lanes must exist before the first Compile so the snapshot's
		// routing verdicts see them.
		pl.EnableSharding(c.shardWorkers)
	}
	c.ctxPool.New = func() any { return core.NewProcCtxUnique() }
	c.tele = cfg.Telemetry
	if c.tele != nil {
		pl.SetTelemetry(c.tele)
		c.tele.SetSource(c)
	}
	c.publishLocked()
	return c
}

// publishLocked compiles the pipeline's current configuration and swaps in
// the new snapshot. Callers hold c.mu (or are the constructor). The
// displaced snapshot joins the retired ring so its unsettled telemetry
// counts are folded into the durable counters (telemetry.go).
func (c *Controller) publishLocked() {
	old := c.snap.Swap(c.pipeline.Compile())
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Republish recompiles and republishes the data-plane snapshot. The
// controller does this automatically after every task-mutating call; it is
// needed only after mutating the pipeline directly through Pipeline().
func (c *Controller) Republish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := c.teleMutation("republish")
	c.publishLocked()
	done(0, "", nil)
}

// Pipeline exposes the data plane (the daemon feeds packets through it).
func (c *Controller) Pipeline() *core.Pipeline { return c.pipeline }

// Process pushes one packet through the data plane: it registers as a
// reader (a shared hold of procGate — two uncontended atomic adds), loads
// the RCU-published snapshot and executes against its frozen rule copies.
// Readers never exclude each other and never wait for a control-channel
// operation's work (rule installs, freezes, memory moves) — the switch
// hardware property FlyMon's on-the-fly reconfiguration relies on; a
// pending grace period or lane drain holds a new reader back only until
// the readers already in flight (one span at most) have left. Process is
// safe for concurrent callers.
func (c *Controller) Process(p *packet.Packet) {
	c.procGate.RLock()
	snap := c.snap.Load()
	pc := c.ctxPool.Get().(*core.ProcCtx)
	snap.Process(pc, p)
	c.ctxPool.Put(pc)
	c.procGate.RUnlock()
}

// ProcessBatch pushes a packet slice through the data plane sequentially
// on one worker context, against one consistent snapshot. It is the
// sequential reference, kept on purpose beside the frame engine: the
// differential tests and the benchmark's set-up check compare
// ProcessFrameSource's registers against it, so it never routes through
// the pool. Product callers with more than one packet use
// ProcessFrameSource or ReplayTrace. The context comes from the
// controller's pool with its rng rewound to the fixed seed, so identical
// batches replay identically — bit-for-bit what a fresh NewProcCtx would
// compute — while its scratch stays warm, keeping the per-batch path
// allocation-free.
func (c *Controller) ProcessBatch(ps []packet.Packet) {
	if len(ps) == 0 {
		return
	}
	c.procGate.RLock()
	snap := c.snap.Load()
	pc := c.ctxPool.Get().(*core.ProcCtx)
	pc.Reseed()
	snap.ProcessBatchCtx(pc, ps)
	c.ctxPool.Put(pc)
	c.procGate.RUnlock()
}

// ProcessFrameSource drains a pull-based frame source (the mmap replay
// ring, internal/mmtrace) through the controller's persistent worker pool
// with the FrameView-native engine, returning when the source is
// exhausted: spans of raw mmapped records execute stage-at-a-time with no
// packet materialization, falling back to per-frame decode only for
// snapshots the vectorizer rejects (spliced groups, probabilistic rules).
// Every worker reloads the RCU-published snapshot per span, so task
// deploys, freezes, and resizes issued mid-replay take effect at the next
// span boundary — replay behaves exactly like live traffic under
// on-the-fly reconfiguration.
//
// In sharded mode (Config.ShardedState) each pool worker owns a private
// register lane: compiled rules whose ops merge exactly write the lane with
// plain stores — no CAS, no contended counter — and the control plane
// reduces lanes into shared state before any readout. In every mode each
// span holds the procGate shared, so drains, grace periods and queries
// interleave with a long replay instead of stalling behind it.
func (c *Controller) ProcessFrameSource(src core.FrameSource) {
	c.workerPool().ProcessFrameSource(c.snap.Load, src, &c.procGate)
}

// ReplayTrace pushes one pass over t through the pool's Config.Workers
// workers and returns when every frame has executed — the one-call form of
// ProcessFrameSource for a caller that holds a whole trace (a mapped file,
// or packets encoded with mmtrace.FromPackets). With one worker the frames
// execute in trace order; with several, span order across workers is
// unspecified and commuting ops keep exact counts.
func (c *Controller) ReplayTrace(t *mmtrace.Trace) {
	c.workerPool().ReplayTrace(c.snap.Load, t, &c.procGate)
}

// workerPool returns the controller's persistent pool, starting it on
// first use (Config.Workers workers, lane-owning in sharded mode).
func (c *Controller) workerPool() *core.WorkerPool {
	if p := c.workers.Load(); p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.workers.Load(); p != nil {
		return p
	}
	p := core.NewWorkerPool(c.shardWorkers, c.sharded)
	c.workers.Store(p)
	return p
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
	c.shardCtr.RecordDrain(n)
	if c.tele != nil {
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
// Pipeline(). No-op (zero) in shared mode.
func (c *Controller) DrainShards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainShards()
}

// grace waits until every reader that entered the packet path before the
// call has left it: an empty exclusive hold of the gate readers hold shared.
// Readers load the snapshot inside their hold, so after publishLocked and
// grace no reader still executes a snapshot older than the publish — what
// it unlinked is quiescent and may be read, cleared and re-granted with
// plain memory operations while traffic runs. Callers hold c.mu.
func (c *Controller) grace() {
	start := time.Now()
	c.procGate.Lock()
	c.procGate.Unlock() // the empty critical section is the barrier
	c.graceWaited += time.Since(start)
}

// Sharded reports whether the controller runs the sharded lane engine.
func (c *Controller) Sharded() bool { return c.sharded }

// Workers returns the controller's pool width (the lane count in sharded
// mode) — the consumer count a Replayer feeding ProcessFrameSource needs.
func (c *Controller) Workers() int { return c.shardWorkers }

// ShardStats summarizes the sharded engine: lane count, the live
// snapshot's compile-time routing verdicts, and drain counters.
func (c *Controller) ShardStats() metrics.ShardStats {
	st := c.shardCtr.Stats()
	if c.sharded {
		st.Workers = c.shardWorkers
	}
	st.ShardedRules, st.FallbackRules = c.snap.Load().ShardedRules()
	return st
}

// Close releases the controller's background resources (the worker pool).
// The controller remains usable for sequential processing and control-
// plane queries; only ProcessFrameSource and ReplayTrace must not be
// called after Close.
func (c *Controller) Close() {
	if p := c.workers.Swap(nil); p != nil {
		p.Close()
	}
}

// Tasks returns deployed tasks sorted by ID.
func (c *Controller) Tasks() []*Task {
	c.mu.Lock()
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
	c.mu.Lock()
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
// rolled-back placement probe never had a published rule.
func (c *Controller) AddTask(spec TaskSpec) (*Task, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
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
	if err != nil {
		return nil, err
	}
	c.nextID++
	c.tasks[id] = task
	locs := c.pipeline.Locate(id)
	task.Delay = c.Delay.Delay(c.countRules(task, locs))
	task.Fingerprint = layoutFingerprint(locs)
	c.publishLocked()
	return task, nil
}

// place tries candidate placements in greedy preference order and installs
// the first that fits.
func (c *Controller) place(id int, spec TaskSpec, alg Algorithm, d int) (*Task, error) {
	need := alg.GroupsNeeded(d)
	n := c.regular
	if need > n {
		return nil, fmt.Errorf("controlplane: %s needs %d groups, pipeline has %d", alg, need, n)
	}

	// Candidate starting groups, preferring groups that already produce
	// the task's compressed key (§3.4 greedy strategy). Spliced
	// (recirculated) groups host only single-group tasks and come last:
	// they cost bandwidth (Appendix E).
	order := make([]int, 0, len(c.groups))
	var rest, spliced []int
	for gi := 0; gi+need <= n; gi++ {
		if c.groups[gi].FindUnit(spec.Key) >= 0 {
			order = append(order, gi)
		} else {
			rest = append(rest, gi)
		}
	}
	if need == 1 {
		for gi := c.regular; gi < len(c.groups); gi++ {
			spliced = append(spliced, gi)
		}
	}
	order = append(order, rest...)
	order = append(order, spliced...)

	var firstErr error
	for _, gi := range order {
		task, err := c.installAt(gi, id, spec, alg, d)
		if err == nil {
			return task, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("controlplane: no placement for %s", alg)
	}
	return nil, fmt.Errorf("controlplane: cannot place task %q (%s): %w", spec.Name, alg, firstErr)
}

// installAt attempts a full installation of the task starting at group gi,
// trying each feasible CMU offset within the group, rolling back
// allocations on failure.
func (c *Controller) installAt(gi, id int, spec TaskSpec, alg Algorithm, d int) (*Task, error) {
	need := alg.GroupsNeeded(d)
	rowCount := d
	if alg == AlgCounterBraids {
		rowCount = 2
	}
	if alg == AlgMaxInterval {
		rowCount = 3
	}

	if need > 1 {
		return c.installSpan(gi, id, spec, alg, d, need, rowCount, 0)
	}
	// Single-group algorithms: a task using fewer rows than the group has
	// CMUs can start at any offset — this is what lets three d=1 tasks per
	// partition level share one group (the 96-task figure, §5.1).
	cmus := c.groups[gi].CMUs()
	var firstErr error
	for off := 0; off+rowCount <= cmus; off++ {
		task, err := c.installSpan(gi, id, spec, alg, d, need, rowCount, off)
		if err == nil {
			return task, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// installSpan allocates partitions and installs the algorithm with a fixed
// CMU offset.
func (c *Controller) installSpan(gi, id int, spec TaskSpec, alg Algorithm,
	d, need, rowCount, offset int) (*Task, error) {
	groups := make([]*core.Group, need)
	groupIdx := make([]int, need)
	for j := 0; j < need; j++ {
		groups[j] = c.groups[gi+j]
		groupIdx[j] = gi + j
	}

	type grant struct {
		group, cmu, base int
	}
	var grants []grant
	rollback := func() {
		for _, g := range grants {
			_ = c.allocs[g.group][g.cmu].Free(g.base)
		}
	}

	rows := make([]core.MemRange, rowCount)
	granted := 0
	for i := 0; i < rowCount; i++ {
		g, cmu := gi, offset+i
		if need > 1 {
			g, cmu = gi+i, 0
		}
		alloc := c.allocs[g][cmu]
		want := c.Mode.PartitionFor(spec.MemBuckets, allocMin(alloc), alloc.Size())
		base, got, err := alloc.Alloc(want)
		if err != nil {
			rollback()
			return nil, err
		}
		grants = append(grants, grant{g, cmu, base})
		rows[i] = core.MemRange{Base: base, Buckets: got}
		granted = got
	}

	// Snapshot compression-unit occupancy to count how many hash-mask
	// rules this deployment installs (for the delay model).
	liveBefore := 0
	for _, g := range groups {
		for u := 0; u < g.Units(); u++ {
			if len(g.UnitSpec(u).Parts) > 0 {
				liveBefore++
			}
		}
	}
	handle, err := c.installAlgorithm(groups, id, spec, alg, d, rows, offset)
	if err != nil {
		rollback()
		return nil, err
	}
	// Resource manager: the deployment must fit every touched group's
	// preparation-stage TCAM budget (address translation + transforms).
	for _, g := range groups {
		if used := c.groupTCAMEntries(g); used > c.tcamBudget {
			handle.Uninstall()
			rollback()
			return nil, fmt.Errorf("controlplane: group %d TCAM load %d exceeds budget %d",
				g.ID(), used, c.tcamBudget)
		}
	}
	liveAfter := 0
	for _, g := range groups {
		for u := 0; u < g.Units(); u++ {
			if len(g.UnitSpec(u).Parts) > 0 {
				liveAfter++
			}
		}
	}
	return &Task{
		ID: id, Spec: spec, Algorithm: alg, D: d,
		Groups: groupIdx, Buckets: granted, handle: handle,
		newMasks: liveAfter - liveBefore,
	}, nil
}

func allocMin(b *BuddyAllocator) int { return b.minBlock }

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
// allocator. Removal is a rule deletion — traffic continues; the call waits
// only for the readers already in flight (one span at most), and no reader
// that began before it returned can write the freed partitions afterwards.
func (c *Controller) RemoveTask(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := c.teleMutation("remove")
	_, err := c.reclaimLocked(id, false)
	done(id, "", err)
	return err
}

// reclaimLocked is the one way a task's memory returns to the allocator,
// in RCU order: unlink the rules, publish, wait out the readers that may
// still hold them (grace), and only then touch the memory — with read set,
// fold the partitions' lanes and copy them out (ResizeTask's result);
// always zero buckets and lanes with plain bulk clears and free. The gate
// is held for the empty lock only: the rest runs beside live traffic, which
// can no longer reach the range. This keeps the invariant every grant
// relies on: each bucket and lane entry outside a granted partition is
// zero, and no reader that began before a reclaiming mutation returned
// writes after it.
func (c *Controller) reclaimLocked(id int, read bool) (old [][]uint32, err error) {
	t, ok := c.tasks[id]
	if !ok {
		return nil, fmt.Errorf("controlplane: %w %d", ErrNoTask, id)
	}
	locs := c.pipeline.Locate(id) // before the rules disappear
	t.handle.Uninstall()
	delete(c.tasks, id)
	// The task's per-rule counters go with it — a re-add (resize keeps the
	// ID) re-registers fresh counters at the new coordinates.
	if c.tele != nil {
		c.tele.DropTask(id)
	}
	c.publishLocked()
	c.grace()
	folded := 0
	for _, loc := range locs {
		reg, mem := loc.Group.CMU(loc.CMU).Register(), loc.Rule.Mem
		if read {
			folded += reg.DrainRange(loc.Rule.Op, mem.Base, mem.Buckets)
			old = append(old, reg.ReadRange(mem.Base, mem.Buckets))
		}
		reg.ClearRange(mem.Base, mem.Buckets)
		if ferr := c.allocs[loc.Group.ID()][loc.CMU].Free(mem.Base); ferr != nil && err == nil {
			err = ferr
		}
	}
	if folded > 0 {
		c.shardCtr.RecordDrain(folded)
	}
	return old, err
}

// ResizeTask reallocates a task's memory (§6, memory reallocation
// strategy): withdraw the old instance, read its partitions out once they
// are quiescent, reclaim them, and deploy a fresh instance of the new size
// under the same ID (placement is exactly remove-then-add). The counters
// restart; old is the final state of the old partitions, lanes folded —
// no in-flight reader can still be adding to it.
func (c *Controller) ResizeTask(id, newBuckets int) (old [][]uint32, err error) {
	c.mu.Lock()
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
	c.mu.Lock()
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
	c.mu.Lock()
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
	c.mu.Lock()
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
	c.mu.Lock()
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
	c.mu.Lock()
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
// Every query drains dirty register lanes first (drainShards) so sharded-
// mode readouts observe complete, merged counts — identical to what the
// shared-CAS mode would report. The drain is a no-op in shared mode and
// skipped entirely when no batch ran since the last drain.

// EstimateKey returns the task's per-key estimate (frequency, max, or
// distinct count depending on the algorithm).
func (c *Controller) EstimateKey(id int, k packet.CanonicalKey) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return 0, err
	}
	switch h := t.handle.(type) {
	case *algorithms.CMSTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.MRACTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.SuMaxSumTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.SuMaxMaxTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.TowerTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.CounterBraidsTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.MaxIntervalTask:
		return float64(h.EstimateKey(k)), nil
	case *algorithms.BeauCoupTask:
		return h.EstimateDistinct(k), nil
	default:
		return 0, fmt.Errorf("controlplane: task %d (%s) has no per-key estimate", id, t.Algorithm)
	}
}

// Cardinality returns a distinct-count task's whole-traffic estimate.
func (c *Controller) Cardinality(id int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return 0, err
	}
	switch h := t.handle.(type) {
	case *algorithms.HLLTask:
		return h.Estimate()
	case *algorithms.LinearCountingTask:
		return h.Estimate()
	default:
		return 0, fmt.Errorf("controlplane: task %d (%s) is not a cardinality task", id, t.Algorithm)
	}
}

// Contains reports Bloom-filter membership for key k.
func (c *Controller) Contains(id int, k packet.CanonicalKey) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return false, err
	}
	h, ok := t.handle.(*algorithms.BloomTask)
	if !ok {
		return false, fmt.Errorf("controlplane: task %d (%s) is not an existence task", id, t.Algorithm)
	}
	return h.ContainsKey(k), nil
}

// Reported returns the candidates a detection task reports.
func (c *Controller) Reported(id int, candidates []packet.CanonicalKey) (map[packet.CanonicalKey]bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return nil, err
	}
	switch h := t.handle.(type) {
	case *algorithms.BeauCoupTask:
		return h.Reported(candidates), nil
	case *algorithms.CMSTask:
		return h.HeavyHitters(candidates, uint32(t.Spec.Threshold)), nil
	case *algorithms.SuMaxSumTask:
		return h.HeavyHitters(candidates, uint32(t.Spec.Threshold)), nil
	default:
		return nil, fmt.Errorf("controlplane: task %d (%s) is not a detection task", id, t.Algorithm)
	}
}

// Distribution returns an MRAC task's estimated flow-size distribution and
// entropy.
func (c *Controller) Distribution(id int) (map[uint64]float64, float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return nil, 0, err
	}
	h, ok := t.handle.(*algorithms.MRACTask)
	if !ok {
		return nil, 0, fmt.Errorf("controlplane: task %d (%s) is not a distribution task", id, t.Algorithm)
	}
	counters, err := h.Counters()
	if err != nil {
		return nil, 0, err
	}
	dist := analysis.MRACDistribution(counters, 1024, 10)
	return dist, metrics.EntropyFromDistribution(dist), nil
}

// ReadRegisters reads a task's raw register partitions.
func (c *Controller) ReadRegisters(id int) ([][]uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	return c.pipeline.ReadTask(id)
}

// ResetTaskCounters zeroes a task's register partitions — the epoch
// rollover every sketch-based system performs between measurement windows.
// The partitions stay live (their rules keep matching), so this one clear
// excludes the packet path — the gate held exclusive — instead of waiting
// it out.
func (c *Controller) ResetTaskCounters(id int) error {
	c.mu.Lock()
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
// query surface used by the experiment harness).
func (c *Controller) TaskHandle(id int) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainShards()
	t, err := c.taskLocked(id)
	if err != nil {
		return nil, err
	}
	return t.handle, nil
}
