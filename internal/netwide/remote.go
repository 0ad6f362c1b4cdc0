package netwide

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/epoch"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// FleetOptions tunes the remote fleet's failure behavior.
type FleetOptions struct {
	// AllowPartial lets fleet-wide queries return a merged result over the
	// reachable subset of switches (annotated in a QueryReport) instead of
	// failing the whole query when one daemon is down. A sketch merged
	// over k of n switches is still a valid (under)estimate.
	AllowPartial bool
	// OpTimeout bounds one fleet-wide fan-out (deploy, remove, query).
	// Switches that have not answered by then are counted as failed for
	// this operation; their in-flight calls still complete in the
	// background and update health. 0 = wait for every per-call timeout.
	OpTimeout time.Duration
	// DownAfter consecutive failures mark a switch Down (default 3; the
	// first failure already marks it Degraded).
	DownAfter int
	// Telemetry, when set, counts fan-outs, per-switch operation failures,
	// partial merges, and health-state transitions (normally a Registry's
	// Fleet section). nil = uninstrumented.
	Telemetry *telemetry.FleetStats
	// MergeArity overrides the merge tree's fan-in (default 4).
	MergeArity int
	// Tracer, when set, records a root span per fleet operation plus
	// per-switch, straggler, and merge-tree child spans, and is attached
	// to every RPC client so per-attempt transport spans parent under the
	// fleet's spans. nil = untraced (zero overhead).
	Tracer *tracing.Tracer
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	return o
}

// RemoteFleet is the fleet controller: the switches are flymond daemons
// (or in-process equivalents, see NewLoopbackFleet) reached over the
// control channel. Every fleet task is an epoch task (DeployEpoch,
// RotateEpoch, Epoch): each switch freezes an epoch and diverts traffic to a
// fresh copy, and the fleet merges what the switches froze. The central
// controller keeps a local MIRROR controller built from the same
// configuration and fed the same deployments; the mirror supplies the index
// mapping typed queries read merged rows through, the daemons supply the
// register contents.
//
// That the mirror and every switch lay a task out identically is checked,
// not assumed: every deployed task and every readout carries a layout
// fingerprint (controlplane.Task.Fingerprint), and a switch whose
// fingerprint differs from the mirror's — a daemon started with another
// geometry, or one whose placement drifted because tasks came and went in
// another order — is refused at deploy time and, at query time, left out of
// the epoch's merge and named in QueryReport.Failed ("layout diverged"). The answer
// is then an honest k-of-n bound instead of a silent mis-indexed sum.
//
// All fleet operations fan out concurrently and track per-switch health;
// with AllowPartial set, queries degrade gracefully when daemons are
// unreachable instead of wedging the whole fleet on one dead switch.
type RemoteFleet struct {
	clients []*rpc.Client
	mirror  *controlplane.Controller
	opts    FleetOptions
	health  *healthTracker

	// tasks is the fleet's task table, name → the epoch task the operator
	// deployed and has not removed. mu guards the map and every entry's
	// held field.
	mu    sync.Mutex
	tasks map[string]*fleetTask

	epochMu sync.Mutex // serializes epoch rotations across the fleet

	// rowPool recycles leaf row buffers between merges: an epoch fetch —
	// a rotation's (EpochRotateInto) or a query's (ReadEpochInto) — lands
	// its frame in a pooled buffer, and the merge tree returns every leaf
	// it folds away, so a merge allocates only the root its store keeps.
	rowPool sync.Pool
}

// fleetTask is one row of the task table: an epoch task, its mirror
// rotator kept in lockstep with every daemon's, and its epoch artifacts.
type fleetTask struct {
	spec controlplane.TaskSpec
	// fingerprint is the layout of the mirror's copy at deployment: what
	// every switch's copy must match. (Each rotated epoch records its own,
	// see storedEpoch.)
	fingerprint uint64
	// held[i] reports that switch i is known to hold the task (it is
	// addressed by name): a removal that partially failed retries only
	// where it is still set.
	held []bool

	// latest is the newest epoch whose rotation decree has finished its
	// fan-out: what EpochOf and "epochN <= 0" resolve to. Lock-free, so
	// neither stalls behind an in-flight rotation nor asks the daemons for
	// an epoch they have not been told about yet.
	latest atomic.Int64

	// mu guards rot and window. It is a leaf lock held for mirror-local
	// work only, never across an RPC, so a stored answer is served while
	// a rotation is fanning out. Lock order: epochMu, then f.mu, then mu.
	mu  sync.Mutex
	rot *epoch.Rotator
	// own is the op the task's rows merge under exactly, fixed at deploy
	// from its rules (fleetOp); exact is false when there is none, and
	// Epoch refuses the task.
	own   MergeOp
	exact bool
	// window is the artifact store, completed epoch → its stored merges:
	// made when the mirror rotates, dropped rpc.EpochRetain rotations
	// later like the daemons' snapshots, freed with the task and the fleet.
	window map[int]*storedEpoch
}

// layoutDiverged is the classified refusal to merge, deploy or count switch
// i's copy of a task: it is indexed differently from the reference.
func layoutDiverged(i int, task string, got, want uint64) error {
	return &rpc.Error{Code: rpc.CodeLayoutDiverged, Msg: fmt.Sprintf(
		"netwide: layout diverged: switch %d lays %q out as %016x, the reference as %016x", i, task, got, want)}
}

// isCode reports whether err carries the daemon classification code.
func isCode(err error, code string) bool {
	var e *rpc.Error
	return errors.As(err, &e) && e.Code == code
}

// NewRemoteFleetOptions wraps daemon connections; the zero FleetOptions are
// strict all-or-nothing queries. cfg is the mirror's configuration: a daemon
// started with a different one (flymond's -groups/-buckets/-bitwidth flags)
// is excluded from deployments and merges and named, see RemoteFleet.
func NewRemoteFleetOptions(clients []*rpc.Client, cfg controlplane.Config, opts FleetOptions) *RemoteFleet {
	opts = opts.withDefaults()
	addrs := make([]string, len(clients))
	for i, c := range clients {
		addrs[i] = c.Addr()
	}
	h := newHealthTracker(len(clients), opts.DownAfter, addrs)
	h.tele = opts.Telemetry
	if opts.Tracer != nil {
		// Per-attempt transport spans (retries, breaker rejections) come
		// from the clients themselves; they need the fleet's tracer.
		for _, c := range clients {
			c.SetTracer(opts.Tracer)
		}
	}
	return &RemoteFleet{
		clients: clients,
		mirror:  controlplane.NewController(cfg),
		opts:    opts,
		health:  h,
		tasks:   make(map[string]*fleetTask),
	}
}

// Size returns the number of remote switches.
func (f *RemoteFleet) Size() int { return len(f.clients) }

// Health returns the per-switch health table (state, consecutive and
// total failures, last error) built from every fleet operation so far.
func (f *RemoteFleet) Health() []SwitchHealth { return f.health.snapshot() }

// startRoot mints a fleet-operation root span (nil when untraced).
func (f *RemoteFleet) startRoot(op, detail string) *tracing.ActiveSpan {
	sp := f.opts.Tracer.StartRoot(op)
	sp.SetDetail(detail)
	return sp
}

// traceSpan opens a child span iff a tracer is attached AND the caller's
// operation is itself traced — an invalid parent means "untraced call",
// not "start a fresh trace", so background probes never flood the buffer.
func traceSpan(tr *tracing.Tracer, parent tracing.SpanContext, name string) *tracing.ActiveSpan {
	if tr == nil || !parent.Valid() {
		return nil
	}
	return tr.StartSpan(parent, name)
}

// fanResult is one switch's outcome inside a streaming fan-out: either a
// fetched row set (query fan-outs) or just an error slot (mutations).
type fanResult struct {
	i    int
	rows [][]uint32
	err  error
}

// fanOutRows runs op on every switch concurrently and streams per-switch
// results as they complete, bounded by timeout (0 = wait for every
// per-call deadline). The returned channel closes once every op
// answered or the deadline fired; at the deadline, unanswered switches
// get a synthesized deadline error while their in-flight calls finish in
// the background and still record health. Streaming is what lets the merge
// tree start folding the fastest switches' rows while the slowest are
// still on the wire.
//
// When the fleet is traced and parent names a live operation, every switch
// gets a "switch" child span (tagged with its index and address) whose
// context the op threads into its RPCs.
func (f *RemoteFleet) fanOutRows(parent tracing.SpanContext, timeout time.Duration, op func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error)) <-chan fanResult {
	if f.opts.Telemetry != nil {
		f.opts.Telemetry.FanOuts.Add(1)
	}
	// Buffered to fleet size: a late completion after the deadline must
	// never block on a channel nobody reads anymore.
	ch := make(chan fanResult, len(f.clients))
	out := make(chan fanResult, len(f.clients))
	for i, c := range f.clients {
		go func(i int, c *rpc.Client) {
			sp := traceSpan(f.opts.Tracer, parent, "switch")
			sp.SetSwitch(i)
			sp.SetDetail(c.Addr())
			rows, err := op(i, c, sp.Context())
			sp.Finish(err)
			if err != nil && f.opts.Telemetry != nil {
				f.opts.Telemetry.OpFailures.Add(1)
			}
			f.health.record(i, err)
			ch <- fanResult{i: i, rows: rows, err: err}
		}(i, c)
	}
	go func() {
		defer close(out)
		var timer <-chan time.Time
		if timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			timer = t.C
		}
		seen := make(map[int]bool, len(f.clients))
		for range f.clients {
			select {
			case r := <-ch:
				seen[r.i] = true
				out <- r
			case <-timer:
				for i := range f.clients {
					if !seen[i] {
						out <- fanResult{i: i, err: fmt.Errorf("netwide: fleet deadline (%v) exceeded", timeout)}
					}
				}
				return
			}
		}
	}()
	return out
}

// fanOut runs op on every switch concurrently and collects per-switch
// errors, bounded by OpTimeout — the barrier form of fanOutRows, used by
// mutations (deploy/remove/rotate) that need the full outcome map.
func (f *RemoteFleet) fanOut(parent tracing.SpanContext, op func(i int, c *rpc.Client, sc tracing.SpanContext) error) map[int]error {
	errs := make(map[int]error)
	for r := range f.fanOutRows(parent, f.opts.OpTimeout, func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error) {
		return nil, op(i, c, sc)
	}) {
		if r.err != nil {
			errs[r.i] = r.err
		}
	}
	return errs
}

// DeployEpoch installs an epoch task (a rotator) on every daemon and on the
// mirror. Deployment is all-or-nothing: a task that exists only on part of
// the fleet would silently under-merge forever, so any failure — or a
// switch that lays the task out other than the mirror does — rolls back
// the switches that did deploy and the mirror.
func (f *RemoteFleet) DeployEpoch(spec controlplane.TaskSpec) (err error) {
	root := f.startRoot("epoch_deploy", spec.Name)
	defer func() { root.Finish(err) }()
	t := &fleetTask{spec: spec, held: make([]bool, len(f.clients)), window: make(map[int]*storedEpoch)}
	f.mu.Lock()
	if _, ok := f.tasks[spec.Name]; ok {
		f.mu.Unlock()
		return fmt.Errorf("netwide: task %q already deployed", spec.Name)
	}
	var mt *controlplane.Task
	if t.rot, err = epoch.NewRotator(f.mirror, spec); err == nil {
		if mt, err = f.mirror.Task(t.rot.ActiveID()); err == nil {
			t.own, t.exact = fleetOp(mt.Merge)
		}
	}
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("netwide: mirror epoch_deploy of %q: %w", spec.Name, err)
	}
	t.fingerprint = mt.Fingerprint

	if err = f.installEverywhere(root.Context(), t); err != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		_ = t.rot.Close()
		return err
	}
	f.mu.Lock()
	f.tasks[spec.Name] = t
	f.mu.Unlock()
	return nil
}

// installEverywhere is the daemon half of an all-or-nothing deployment: fan
// the install out, record which switches hold a copy, require every copy's
// layout fingerprint to equal the mirror's, and on any failure or divergence
// undo the switches that did install, best effort. It returns the
// divergence, else the first failure in switch order; the caller rolls its
// mirror back on error.
func (f *RemoteFleet) installEverywhere(parent tracing.SpanContext, t *fleetTask) error {
	// Guards t.held and failure: with OpTimeout set, a late install still
	// completes (and records itself) after fanOut gave up on it.
	var mu sync.Mutex
	var failure error
	errs := f.fanOut(parent, func(i int, c *rpc.Client, sc tracing.SpanContext) error {
		et, err := c.EpochDeploy(t.spec, sc)
		if err != nil {
			return fmt.Errorf("netwide: epoch_deploy of %q on daemon %d: %w", t.spec.Name, i, err)
		}
		mu.Lock()
		defer mu.Unlock()
		t.held[i] = true
		if et.Task.Fingerprint != t.fingerprint && failure == nil {
			// Other tasks came and went on this daemon in another order, or
			// it runs another geometry: refuse rather than mis-index.
			failure = layoutDiverged(i, t.spec.Name, et.Task.Fingerprint, t.fingerprint)
		}
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if failure == nil && len(errs) > 0 {
		failure = errs[sortedKeys(errs)[0]]
	}
	if failure == nil {
		return nil
	}
	// Plain goroutines, not fanOut: a no-op on an untouched daemon must not
	// be recorded as a health probe.
	var wg sync.WaitGroup
	for i, held := range t.held {
		if !held {
			continue
		}
		wg.Add(1)
		go func(c *rpc.Client) {
			defer wg.Done()
			_ = c.EpochRemove(t.spec.Name)
		}(f.clients[i])
	}
	wg.Wait()
	return failure
}

// RemoveEpochTask reclaims an epoch task everywhere. On partial failure the
// task's row is KEPT so removal can be retried: forgetting it would strand
// installed copies on the unreachable switches forever. A retry addresses
// only the switches still holding the task and treats a "no epoch task"
// answer as already removed (removal is idempotent), so it only needs the
// stragglers to come back.
func (f *RemoteFleet) RemoveEpochTask(name string) (err error) {
	root := f.startRoot("epoch_remove", name)
	defer func() { root.Finish(err) }()
	f.mu.Lock()
	t := f.tasks[name]
	if t == nil {
		f.mu.Unlock()
		return fmt.Errorf("netwide: no epoch task %q", name)
	}
	held := append([]bool(nil), t.held...)
	f.mu.Unlock()
	errs := f.fanOut(root.Context(), func(i int, c *rpc.Client, sc tracing.SpanContext) error {
		if !held[i] {
			return nil // removed by a previous, partially-failed attempt
		}
		err := c.EpochRemove(name, sc)
		if isCode(err, rpc.CodeNoEpochTask) {
			err = nil
		}
		if err == nil {
			f.mu.Lock()
			t.held[i] = false
			f.mu.Unlock()
		}
		return err
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(errs) > 0 {
		return &PartialFailureError{Op: "epoch_remove", Task: name, Failed: errs, Total: len(f.clients)}
	}
	delete(f.tasks, name) // and with it the task's stored epochs
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rot.Close()
}

// layoutRef is the fingerprint every leaf of one merge must carry: the
// mirror's when this fleet deployed the task, else that of the first readout
// to arrive — a visitor (flymonctl query) has no mirror entry, so what it
// can check is that the switches agree with each other.
type layoutRef struct {
	mu     sync.Mutex
	pinned bool
	want   uint64
}

func pinnedLayout(fingerprint uint64) *layoutRef {
	return &layoutRef{pinned: true, want: fingerprint}
}

// admits reports whether a readout with this fingerprint may enter the
// merge, and the reference it was held to.
func (r *layoutRef) admits(fingerprint uint64) (want uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.pinned {
		r.pinned, r.want = true, fingerprint
	}
	return r.want, fingerprint == r.want
}

// mergeStats returns the fleet's merge-tree telemetry section, if any.
func (f *RemoteFleet) mergeStats() *telemetry.MergeTreeStats {
	if f.opts.Telemetry == nil {
		return nil
	}
	return &f.opts.Telemetry.MergeTree
}

// putRowBuf returns a consumed leaf buffer to the pool. Safe for
// concurrent use (merge workers recycle sources as they fold).
func (f *RemoteFleet) putRowBuf(rows [][]uint32) {
	if rows != nil {
		f.rowPool.Put(rows)
	}
}

// CollectTrace gathers the fleet's distributed spans: every reachable
// daemon's trace_dump plus the controller's own buffer, assembled into
// per-trace trees (newest root first). Collection is best-effort — an
// unreachable or untraced daemon just contributes nothing (its error is
// reported per switch), so the controller half of a trace always renders.
// The dump is not a health probe: debugging a sick fleet must not perturb
// its health.
func (f *RemoteFleet) CollectTrace(perSwitchLimit int) ([]*tracing.Tree, map[int]error) {
	spans := make([][]tracing.Span, len(f.clients))
	errs := make(map[int]error)
	var emu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *rpc.Client) {
			defer wg.Done()
			dump, err := c.TraceDump(perSwitchLimit)
			if err != nil {
				emu.Lock()
				errs[i] = err
				emu.Unlock()
				return
			}
			spans[i] = dump.Spans
		}(i, c)
	}
	wg.Wait()
	local, _, _ := f.opts.Tracer.Dump()
	all := local
	for _, s := range spans {
		all = append(all, s...)
	}
	return tracing.Assemble(all), errs
}

// sortedKeys returns the map's switch indices in ascending order, so
// error selection and reports are deterministic.
func sortedKeys(m map[int]error) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
