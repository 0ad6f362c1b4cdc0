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
	// Journal, when set, records fleet lifecycle events — switch ejects and
	// rejoins, reconciler re-deploys — next to the controller's own
	// reconfiguration journal. nil = unjournaled.
	Journal *telemetry.Journal
	// Clock overrides time.Now for health timestamps and liveness state
	// machines (tests drive time without sleeping). nil = time.Now.
	Clock func() time.Time
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
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// RemoteFleet is the fleet controller: the switches are flymond daemons
// (or in-process equivalents, see NewLoopbackFleet) reached over the
// control channel. The central controller keeps a local MIRROR controller
// built from the same configuration and fed the same deployments; the
// mirror supplies the index mapping typed queries read merged rows through,
// the daemons supply the register contents. Fleet-wide answers come from
// epoch tasks only (DeployEpoch, RotateEpoch, Epoch); a plain task (Deploy)
// is installed and reconciled everywhere but read per switch.
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

	// tasks is the fleet's one registry, name → desired task: what the
	// operator deployed and has not removed, plain and epoch tasks alike.
	// mu guards the map and every entry's remote and tombstoned fields.
	mu    sync.Mutex
	tasks map[string]*fleetTask

	// Set once by StartLiveness/StartReconciler, read by the liveness
	// goroutines (rejoin pokes the reconciler) and by Stop: atomic.
	liveness atomic.Pointer[LivenessManager]
	recon    atomic.Pointer[reconciler]
	reconMu  sync.Mutex // serializes Reconcile passes
	stopOnce sync.Once

	epochMu sync.Mutex // serializes epoch rotations across the fleet

	// rowPool recycles leaf row buffers between merge-tree queries: an
	// epoch read lands its frame in a pooled buffer (ReadEpochInto), so a
	// cold query allocates only the leaf its stored merge keeps.
	rowPool sync.Pool
}

// fleetTask is one row of the desired state.
type fleetTask struct {
	spec controlplane.TaskSpec
	// mirrorID addresses the mirror's copy of a plain task. An epoch task's
	// copies rotate; its handle is epoch.
	mirrorID int
	// fingerprint is the layout of the mirror's copy at deployment: what
	// every switch's copy must match. (Each rotated epoch records its own,
	// see EpochArtifact.)
	fingerprint uint64
	// remote[i] is the ID switch i gave the task — IDs are per switch, a
	// restarted daemon hands out its own — or 0 where the task is not known
	// to be installed. Plain tasks are addressed by it; epoch tasks by name.
	remote []int
	// epoch is the rotation handle of an epoch task, nil for a plain one.
	// The reconciler leaves epoch tasks alone: a daemon's rotating #k copies
	// are not drift.
	epoch *fleetEpoch
	// tombstoned marks a task whose removal partially failed: the row stays
	// (so a retry works) but the reconciler finishes the removal on the
	// stragglers instead of re-deploying the task where it is already gone.
	tombstoned bool
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
	h.now = opts.Clock
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
// total failures, last error, liveness session) built from every fleet
// operation and hello round so far.
func (f *RemoteFleet) Health() []SwitchHealth { return f.health.snapshot() }

// journal records one fleet lifecycle event, if a journal is attached
// (task 0 = fleet-level event not tied to one task).
func (f *RemoteFleet) journal(kind string, task int, detail string, err error) {
	if f.opts.Journal == nil {
		return
	}
	ev := telemetry.Event{
		Kind:   kind,
		Task:   task,
		Detail: detail,
		OK:     err == nil,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	f.opts.Journal.Record(ev)
}

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

// StartLiveness attaches BFD-style keepalive sessions to every switch and
// makes them the fleet's primary health signal: a switch whose session is
// not reported-Up is ejected from fan-outs and merges without issuing an
// RPC, and readmitted (with its op-failure residue cleared) the moment
// the session is Up again. Call Stop to tear the sessions down.
func (f *RemoteFleet) StartLiveness(opts LivenessOptions) {
	if f.liveness.Load() != nil {
		return
	}
	if opts.Clock == nil {
		opts.Clock = f.opts.Clock
	}
	addrs := make([]string, len(f.clients))
	for i, c := range f.clients {
		addrs[i] = c.Addr()
	}
	m := NewLivenessManager(addrs, opts)
	m.onEvent = f.onSessionEvent
	if !f.liveness.CompareAndSwap(nil, m) {
		return
	}
	m.Start()
}

// onSessionEvent folds one hello round's outcome into health, telemetry,
// and the journal, and pokes the reconciler on rejoin.
func (f *RemoteFleet) onSessionEvent(idx int, ev sessionEvent, snap SessionSnapshot) {
	wasUp := false
	if h := f.health.snapshot(); idx < len(h) {
		wasUp = h[idx].SessionUp
	}
	f.health.setSession(idx, snap)
	if tele := f.opts.Telemetry; tele != nil {
		if ev.StateChanged {
			switch ev.To {
			case SessionUp:
				tele.SessionToUp.Add(1)
			case SessionInit:
				tele.SessionToInit.Add(1)
			case SessionDown:
				tele.SessionToDown.Add(1)
			}
		}
		if ev.DetectionTime > 0 {
			tele.DetectionTime.Observe(ev.DetectionTime)
		}
		tele.SetSession(telemetry.SessionGauge{
			Switch: idx,
			Addr:   snap.Addr,
			State:  snap.State.String(),
			Damped: snap.Damped,
		})
	}
	if wasUp && !snap.ReportedUp {
		if f.opts.Telemetry != nil {
			f.opts.Telemetry.Ejects.Add(1)
		}
		detail := fmt.Sprintf("switch %d (%s): session %s", idx, snap.Addr, snap.State)
		if ev.Restarted {
			detail += " (daemon restarted)"
		}
		if snap.Damped {
			detail += " (flap-damped)"
		}
		f.journal("eject", 0, detail, nil)
	}
	if !wasUp && snap.ReportedUp {
		if f.opts.Telemetry != nil {
			f.opts.Telemetry.Rejoins.Add(1)
		}
		f.journal("rejoin", 0, fmt.Sprintf("switch %d (%s): session up", idx, snap.Addr), nil)
		f.pokeReconciler()
	}
}

// Sessions returns the liveness sessions' current snapshots (nil when
// liveness is not running).
func (f *RemoteFleet) Sessions() []SessionSnapshot {
	m := f.liveness.Load()
	if m == nil {
		return nil
	}
	return m.Snapshot()
}

// Stop tears down the liveness sessions and the reconciler, if running.
// The RPC clients are the caller's and stay open.
func (f *RemoteFleet) Stop() {
	f.stopOnce.Do(func() {
		if r := f.recon.Load(); r != nil {
			r.stop()
		}
		if m := f.liveness.Load(); m != nil {
			m.Stop()
		}
	})
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
// per-call deadline). The returned channel closes once every launched op
// answered or the deadline fired; at the deadline, unanswered switches
// get a synthesized deadline error while their in-flight calls finish in
// the background and still record health. Switches a liveness session has
// declared not-Up are ejected up front: they fail immediately with a
// liveness error and no RPC is issued, so a dead daemon costs a fleet
// query nothing. Streaming is what lets the merge tree start folding the
// fastest switches' rows while the slowest are still on the wire.
//
// When the fleet is traced and parent names a live operation, every
// launched switch gets a "switch" child span (tagged with its index and
// address) whose context the op threads into its RPCs, and every ejected
// switch gets an instant "eject" span recording why no RPC was issued.
func (f *RemoteFleet) fanOutRows(parent tracing.SpanContext, timeout time.Duration, op func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error)) <-chan fanResult {
	if f.opts.Telemetry != nil {
		f.opts.Telemetry.FanOuts.Add(1)
	}
	// Buffered to fleet size: a late completion after the deadline must
	// never block on a channel nobody reads anymore.
	ch := make(chan fanResult, len(f.clients))
	out := make(chan fanResult, len(f.clients))
	launched := 0
	skipped := make(map[int]bool)
	for i, c := range f.clients {
		if reason, ok := f.health.ejected(i); ok {
			skipped[i] = true
			err := fmt.Errorf("netwide: switch %d ejected (%s)", i, reason)
			esp := traceSpan(f.opts.Tracer, parent, "eject")
			esp.SetSwitch(i)
			esp.SetDetail(reason)
			esp.Finish(err)
			out <- fanResult{i: i, err: err}
			if f.opts.Telemetry != nil {
				f.opts.Telemetry.OpFailures.Add(1)
			}
			continue
		}
		launched++
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
		seen := make(map[int]bool, launched)
		for n := 0; n < launched; n++ {
			select {
			case r := <-ch:
				seen[r.i] = true
				out <- r
			case <-timer:
				for i := range f.clients {
					if !seen[i] && !skipped[i] {
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

// Deploy installs the spec on every daemon and on the local mirror,
// fanning out concurrently. Deployment stays all-or-nothing: a task that
// exists only on part of the fleet would silently under-merge forever, so
// any failure rolls back the switches that did deploy.
func (f *RemoteFleet) Deploy(spec controlplane.TaskSpec) error {
	return f.install("deploy", spec, false)
}

// install is the one deployment path (Deploy, DeployEpoch): claim the name,
// deploy on the mirror — a rotator when rotating — then on every switch,
// and enter the task in the table only if all of them laid it out the way
// the mirror did.
func (f *RemoteFleet) install(op string, spec controlplane.TaskSpec, rotating bool) (err error) {
	root := f.startRoot(op, spec.Name)
	defer func() { root.Finish(err) }()
	t := &fleetTask{spec: spec, remote: make([]int, len(f.clients))}
	f.mu.Lock()
	if _, ok := f.tasks[spec.Name]; ok {
		f.mu.Unlock()
		return fmt.Errorf("netwide: task %q already deployed", spec.Name)
	}
	var mt *controlplane.Task
	if rotating {
		t.epoch = &fleetEpoch{window: make(map[int]*storedEpoch)}
		if t.epoch.rot, err = epoch.NewRotator(f.mirror, spec); err == nil {
			if mt, err = f.mirror.Task(t.epoch.rot.ActiveID()); err == nil {
				t.epoch.own, t.epoch.exact = fleetOp(mt.Merge)
			}
		}
	} else if mt, err = f.mirror.AddTask(spec); err == nil {
		t.mirrorID = mt.ID
	}
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("netwide: mirror %s of %q: %w", op, spec.Name, err)
	}
	t.fingerprint = mt.Fingerprint

	if err = f.installEverywhere(root.Context(), op, t); err != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if rotating {
			_ = t.epoch.rot.Close()
		} else {
			_ = f.mirror.RemoveTask(t.mirrorID)
		}
		return err
	}
	f.mu.Lock()
	f.tasks[spec.Name] = t
	f.mu.Unlock()
	if rotating {
		f.journal(op, mt.ID, spec.Name, nil)
	} else {
		f.pokeReconciler()
	}
	return nil
}

// installEverywhere is the daemon half of an all-or-nothing deployment: fan
// the install out, record the ID each switch assigned, require every copy's
// layout fingerprint to equal the mirror's, and on any failure or divergence
// undo the switches that did install, best effort. It returns the
// divergence, else the first failure in switch order; the caller rolls its
// mirror back on error.
func (f *RemoteFleet) installEverywhere(parent tracing.SpanContext, op string, t *fleetTask) error {
	// Guards t.remote and failure: with OpTimeout set, a late install still
	// completes (and records itself) after fanOut gave up on it.
	var mu sync.Mutex
	var failure error
	errs := f.fanOut(parent, func(i int, c *rpc.Client, sc tracing.SpanContext) error {
		var tr rpc.TaskResult
		var err error
		if t.epoch != nil {
			var et rpc.EpochTaskResult
			et, err = c.EpochDeploy(t.spec, sc)
			tr = et.Task
		} else {
			tr, err = c.AddTask(t.spec, sc)
		}
		if err != nil {
			return fmt.Errorf("netwide: %s of %q on daemon %d: %w", op, t.spec.Name, i, err)
		}
		mu.Lock()
		defer mu.Unlock()
		t.remote[i] = tr.ID
		if tr.Fingerprint != t.fingerprint && failure == nil {
			// Other tasks came and went on this daemon in another order, or
			// it runs another geometry: refuse rather than mis-index.
			failure = layoutDiverged(i, t.spec.Name, tr.Fingerprint, t.fingerprint)
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
	for i, id := range t.remote {
		if id == 0 {
			continue
		}
		wg.Add(1)
		go func(c *rpc.Client, id int) {
			defer wg.Done()
			if t.epoch != nil {
				_ = c.EpochRemove(t.spec.Name)
			} else {
				_ = c.RemoveTask(id)
			}
		}(f.clients[i], id)
	}
	wg.Wait()
	return failure
}

// Remove uninstalls the named task everywhere. On partial failure the
// task's row is KEPT so removal can be retried: forgetting it would strand
// installed tasks on the unreachable switches forever. A retry addresses
// only the switches still holding the task and treats a "no task" answer as
// already removed (removal is idempotent), so it only needs the stragglers
// to come back.
func (f *RemoteFleet) Remove(name string) error {
	return f.uninstall("remove", name, false)
}

// uninstall is the one removal path (Remove, RemoveEpochTask).
func (f *RemoteFleet) uninstall(op, name string, rotating bool) (err error) {
	root := f.startRoot(op, name)
	defer func() { root.Finish(err) }()
	f.mu.Lock()
	t := f.tasks[name]
	if t == nil || (t.epoch != nil) != rotating {
		f.mu.Unlock()
		if rotating {
			return fmt.Errorf("netwide: no epoch task %q", name)
		}
		return fmt.Errorf("netwide: no task %q", name)
	}
	remote := append([]int(nil), t.remote...)
	f.mu.Unlock()
	errs := f.fanOut(root.Context(), func(i int, c *rpc.Client, sc tracing.SpanContext) error {
		if remote[i] == 0 {
			return nil // removed by a previous, partially-failed attempt
		}
		var err error
		if rotating {
			if err = c.EpochRemove(name, sc); isCode(err, rpc.CodeNoEpochTask) {
				err = nil
			}
		} else if err = c.RemoveTask(remote[i], sc); isCode(err, rpc.CodeNoTask) {
			err = nil
		}
		if err == nil {
			f.mu.Lock()
			t.remote[i] = 0
			f.mu.Unlock()
		}
		return err
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(errs) > 0 {
		t.tombstoned = true
		return &PartialFailureError{Op: op, Task: name, Failed: errs, Total: len(f.clients)}
	}
	delete(f.tasks, name) // and with it an epoch task's stored epochs
	if rotating {
		t.epoch.mu.Lock()
		defer t.epoch.mu.Unlock()
		return t.epoch.rot.Close()
	}
	return f.mirror.RemoveTask(t.mirrorID)
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
// Ejected switches are skipped without an RPC, and the dump itself is not
// a health probe: debugging a sick fleet must not perturb its health.
func (f *RemoteFleet) CollectTrace(perSwitchLimit int) ([]*tracing.Tree, map[int]error) {
	spans := make([][]tracing.Span, len(f.clients))
	errs := make(map[int]error)
	var emu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range f.clients {
		if reason, ok := f.health.ejected(i); ok {
			errs[i] = fmt.Errorf("netwide: switch %d ejected (%s)", i, reason)
			continue
		}
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
