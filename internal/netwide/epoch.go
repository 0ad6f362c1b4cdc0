package netwide

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/core/algorithms"
	"flymon/internal/epoch"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/tracing"
)

// Epoch-coherent fleet readouts: "everyone's state for epoch E".
//
// A live fleet query merges registers captured at slightly different
// instants — each switch keeps counting while the fan-out is in flight,
// so the merged answer corresponds to no single cut of the traffic. The
// epoch plane fixes that: every switch runs the same epoch.Rotator
// (freeze-and-divert double buffering), the fleet controller decrees
// rotations with an explicit target epoch (idempotent, so retries and
// catch-ups converge), and queries read the per-epoch register snapshots
// the daemons froze — the merge tree then combines only same-epoch rows.
// A switch that missed a rotation is a STRAGGLER: reachable, healthy,
// but behind. The straggler policy decides what a query does about it.

// StragglerPolicy selects how an epoch query treats a reachable switch
// that has not completed the requested epoch.
type StragglerPolicy int

const (
	// StragglerWait polls behind switches until the wait bound; if any is
	// still behind at the bound, the query FAILS (coherent or nothing).
	StragglerWait StragglerPolicy = iota
	// StragglerSkip merges immediately without behind switches (k-of-n).
	StragglerSkip
	// StragglerPartial polls like Wait, but a switch still behind at the
	// bound is dropped from the merge and reported instead of failing the
	// query.
	StragglerPartial
)

func (p StragglerPolicy) String() string {
	switch p {
	case StragglerWait:
		return "wait"
	case StragglerSkip:
		return "skip"
	case StragglerPartial:
		return "partial"
	default:
		return fmt.Sprintf("StragglerPolicy(%d)", int(p))
	}
}

// ParseStragglerPolicy resolves a CLI-facing policy name.
func ParseStragglerPolicy(s string) (StragglerPolicy, error) {
	switch s {
	case "wait", "":
		return StragglerWait, nil
	case "skip":
		return StragglerSkip, nil
	case "partial":
		return StragglerPartial, nil
	default:
		return 0, fmt.Errorf("netwide: unknown straggler policy %q (want wait|skip|partial)", s)
	}
}

// DefaultEpochWait bounds straggler polling when EpochQuery.Wait is zero.
const DefaultEpochWait = 2 * time.Second

// EpochQuery parameterizes one epoch-coherent readout.
type EpochQuery struct {
	// Policy is the straggler policy (default wait).
	Policy StragglerPolicy
	// Wait bounds straggler polling for the wait/partial policies
	// (default DefaultEpochWait).
	Wait time.Duration
	// Op is the merge operation (default add).
	Op MergeOp
}

func (q EpochQuery) withDefaults() EpochQuery {
	if q.Wait <= 0 {
		q.Wait = DefaultEpochWait
	}
	return q
}

// fleetEpoch is the rotation handle of one fleet-wide epoch task (a
// fleetTask's epoch field): the mirror rotator, kept in lockstep with every
// daemon's, and the task's epoch artifacts.
type fleetEpoch struct {
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
	// window is the artifact store, completed epoch → frozenEpoch: made
	// when the mirror rotates, dropped rpc.EpochRetain rotations later
	// like the daemons' snapshots, freed with the task and the fleet.
	window map[int]*frozenEpoch
}

// frozenEpoch is one completed epoch as an immutable artifact. A rotated
// epoch can never change (daemon snapshots are immutable once taken), so
// its first COMPLETE merge under an op — every switch contributed, none
// failed, none straggled — is kept with its report and every later query
// is a read of it. Partial answers are returned to their caller but never
// stored: the next query goes back to the fleet and picks up a caught-up
// straggler by itself, which is all the invalidation there is.
type frozenEpoch struct {
	// cms is the mirror's frozen copy of this epoch, captured at rotation
	// (nil for non-counter tasks). The mirror reclaims the copy two
	// rotations later, but RowIndexFor only needs the unit's fixed CRC
	// table, the row selector, the partitions and the translation method,
	// so the handle indexes this epoch's rows for as long as they are kept.
	cms *algorithms.CMSTask
	// fingerprint is the layout of the mirror's frozen copy: what every
	// switch's snapshot of this epoch must carry to enter its merge.
	fingerprint uint64
	merged      map[MergeOp]epochArtifact // complete merges only
	filling     map[MergeOp]chan struct{} // closed when the in-flight first merge ends
}

// epochArtifact is one merge of a completed epoch with its provenance.
// Stored artifacts are shared between callers: rows and report are
// read-only.
type epochArtifact struct {
	rows   [][]uint32
	report QueryReport
	cms    *algorithms.CMSTask
}

// stragglerError marks "reachable but behind" inside a fan-out, so the
// report can separate stragglers from failures.
type stragglerError struct {
	want, have int
}

func (e *stragglerError) Error() string {
	return fmt.Sprintf("netwide: straggler: wants epoch %d, has %d", e.want, e.have)
}

// DeployEpoch installs an epoch task (a rotator) on every daemon and on
// the mirror, all-or-nothing with rollback like Deploy, whose name space it
// shares.
func (f *RemoteFleet) DeployEpoch(spec controlplane.TaskSpec) error {
	return f.install("epoch_deploy", spec, true)
}

// RemoveEpochTask reclaims an epoch task everywhere. Like Remove, a
// partial failure keeps the row so a retry only needs the stragglers
// ("no epoch task" answers are treated as already removed).
func (f *RemoteFleet) RemoveEpochTask(name string) error {
	return f.uninstall("epoch_remove", name, true)
}

// epochTask returns the rotation handle of a deployed epoch task, or nil.
func (f *RemoteFleet) epochTask(name string) *fleetEpoch {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t := f.tasks[name]; t != nil {
		return t.epoch
	}
	return nil
}

// EpochOf returns the fleet's latest completed epoch for an epoch task:
// the newest one whose rotation has been decreed to every switch (the
// epoch queries default to). It never waits on an in-flight rotation.
func (f *RemoteFleet) EpochOf(name string) (int, error) {
	et := f.epochTask(name)
	if et == nil {
		return 0, fmt.Errorf("netwide: no epoch task %q", name)
	}
	return int(et.latest.Load()), nil
}

// RotateEpoch ends the current epoch fleet-wide: the mirror rotates
// first (establishing the new target epoch), then every daemon is told
// to advance to that explicit target. The daemon-side advance is
// idempotent, so transport failures are retried once, and a switch that
// misses this rotation entirely catches up — snapshotting the epochs it
// missed — on the next one. Failed switches become stragglers for
// queries in the meantime; with AllowPartial unset they also fail this
// call (the rotation itself, and the mirror, remain advanced either
// way — rotation is a decree, not a transaction).
func (f *RemoteFleet) RotateEpoch(name string) (target int, err error) {
	root := f.startRoot("epoch_rotate", name)
	defer func() { root.Finish(err) }()
	et := f.epochTask(name)
	if et == nil {
		return 0, fmt.Errorf("netwide: no epoch task %q", name)
	}
	f.epochMu.Lock()
	defer f.epochMu.Unlock()
	et.mu.Lock()
	frozenID, err := et.rot.Rotate()
	if err != nil {
		et.mu.Unlock()
		return 0, fmt.Errorf("netwide: mirror rotate of %q: %w", name, err)
	}
	target = et.rot.Epoch()
	fe := &frozenEpoch{merged: make(map[MergeOp]epochArtifact), filling: make(map[MergeOp]chan struct{})}
	if h, err := f.mirror.TaskHandle(frozenID); err == nil {
		fe.cms, _ = h.(*algorithms.CMSTask)
	}
	if mt, err := f.mirror.Task(frozenID); err == nil {
		fe.fingerprint = mt.Fingerprint
	}
	et.window[target] = fe
	// Evicted rows go to the GC, not back into rowPool: callers of
	// QueryEpochRows may still hold them.
	delete(et.window, target-rpc.EpochRetain)
	et.mu.Unlock()
	if root != nil {
		root.SetDetail(fmt.Sprintf("%s to epoch %d", name, target))
	}
	errs := f.fanOut(root.Context(), func(i int, c *rpc.Client, sc tracing.SpanContext) error {
		_, err := c.EpochRotate(name, target, sc)
		var te *rpc.TransportError
		if errors.As(err, &te) {
			// Explicit-target rotation is idempotent: one immediate retry
			// covers the applied-but-unacknowledged case.
			_, err = c.EpochRotate(name, target, sc)
		}
		if err != nil {
			return fmt.Errorf("netwide: rotating %q to epoch %d on daemon %d: %w", name, target, i, err)
		}
		return nil
	})
	et.latest.Store(int64(target))
	if f.opts.Journal != nil {
		f.journal("epoch_rotate", 0, fmt.Sprintf("%s to epoch %d (%d/%d switches)",
			name, target, len(f.clients)-len(errs), len(f.clients)), nil)
	}
	if len(errs) > 0 && !f.opts.AllowPartial {
		return target, &PartialFailureError{Op: "epoch_rotate", Task: name, Failed: errs, Total: len(f.clients)}
	}
	return target, nil
}

// pollInterval picks the straggler poll cadence from the wait bound.
func pollInterval(wait time.Duration) time.Duration {
	p := wait / 20
	if p < 5*time.Millisecond {
		p = 5 * time.Millisecond
	}
	if p > 100*time.Millisecond {
		p = 100 * time.Millisecond
	}
	return p
}

// pollEpoch is the per-switch epoch fetch: read, classify, and — under
// the wait/partial policies — poll while the daemon is behind, counting
// the straggler outcome. When the query is traced, the straggler decision
// is a span under parent: "straggler_wait" covering the whole poll (error
// = still behind at the bound) or an instant "straggler_skip" under the
// skip policy.
func (f *RemoteFleet) pollEpoch(c *rpc.Client, name string, epochN int, q EpochQuery, parent tracing.SpanContext) (rpc.EpochRegistersResult, error) {
	st := f.mergeStats()
	start := time.Now()
	deadline := start.Add(q.Wait)
	poll := pollInterval(q.Wait)
	polled := false
	var waitSp *tracing.ActiveSpan
	for {
		res, err := c.ReadEpoch(name, epochN, parent)
		if err == nil {
			if polled {
				if st != nil {
					st.StragglerWaits.Add(1)
					st.StragglerWait.Observe(time.Since(start))
				}
				waitSp.SetDetail(fmt.Sprintf("epoch=%d caught up", epochN))
				waitSp.Finish(nil)
			}
			return res, nil
		}
		var behind *rpc.Error
		if !errors.As(err, &behind) || behind.Code != rpc.CodeEpochUnavailable {
			waitSp.Finish(err)
			return rpc.EpochRegistersResult{}, err
		}
		have := behind.Have
		if have > epochN {
			// Not behind — ahead: the snapshot was already evicted by
			// retention. Waiting cannot bring it back.
			err = fmt.Errorf("netwide: epoch %d of %q evicted on this daemon (retention window passed): %w", epochN, name, err)
			waitSp.Finish(err)
			return rpc.EpochRegistersResult{}, err
		}
		serr := &stragglerError{want: epochN, have: have}
		if q.Policy == StragglerSkip {
			if st != nil {
				st.StragglersSkipped.Add(1)
			}
			sp := traceSpan(f.opts.Tracer, parent, "straggler_skip")
			sp.SetDetail(fmt.Sprintf("want=%d have=%d", epochN, have))
			sp.Finish(serr)
			return rpc.EpochRegistersResult{}, serr
		}
		if !time.Now().Before(deadline) {
			if st != nil {
				st.StragglersTimedOut.Add(1)
				st.StragglerWait.Observe(time.Since(start))
			}
			waitSp.SetDetail(fmt.Sprintf("want=%d have=%d", epochN, have))
			waitSp.Finish(serr)
			return rpc.EpochRegistersResult{}, serr
		}
		if waitSp == nil {
			waitSp = traceSpan(f.opts.Tracer, parent, "straggler_wait")
		}
		polled = true
		time.Sleep(poll)
	}
}

// QueryEpochRows returns the fleet's merged registers for one completed
// epoch (epochN <= 0 = the fleet's latest) under the straggler policy.
// The report pins the epoch and separates stragglers (reachable, behind)
// from failures (unreachable); transport failures still honor
// AllowPartial, and under the wait policy any switch still behind at the
// bound fails the whole query.
//
// The epoch's first complete merge is kept for rpc.EpochRetain rotations
// (see frozenEpoch) and later queries are served from it without an RPC
// (report.Cached), also while a switch is down or ejected. The rows and
// report.Contributed are therefore shared: treat them as read-only.
//
// A name this fleet did not deploy — an epoch task some other controller
// rotates, which is all a one-shot client like flymonctl query ever sees —
// is read from the switches at an explicit epoch and never stored, the
// path epochs outside the window already take.
func (f *RemoteFleet) QueryEpochRows(name string, epochN int, q EpochQuery) ([][]uint32, QueryReport, error) {
	art, err := f.epochArtifact(name, epochN, q.withDefaults())
	return art.rows, art.report, err
}

// EstimateKeyEpoch is EstimateKeyPartial pinned to an epoch boundary:
// the fleet-wide frequency of key k in exactly epoch E's traffic, read
// out of the same stored merge QueryEpochRows serves (the first estimate
// on an epoch pays for the merge, the rest read d cells). Any epoch this
// fleet rotated within the last rpc.EpochRetain rotations qualifies.
func (f *RemoteFleet) EstimateKeyEpoch(name string, epochN int, k packet.CanonicalKey, q EpochQuery) (uint64, QueryReport, error) {
	q.Op = MergeAdd
	art, err := f.epochArtifact(name, epochN, q.withDefaults())
	if err != nil {
		return 0, art.report, err
	}
	if art.cms == nil {
		return 0, art.report, fmt.Errorf("netwide: epoch %d of %q is not index-mapped by the mirror (outside the %d-epoch window, or not a counter task)",
			art.report.Epoch, name, rpc.EpochRetain)
	}
	return countMin(art.cms, art.rows, k), art.report, nil
}

// epochArtifact resolves one (task, epoch, op) readout: from the task's
// window when a complete merge is stored, from the fleet otherwise.
// Concurrent first queries on one key fan out once: the rest wait and
// share the answer if it is complete; after a partial one each runs its
// own query under its own policy. q has its defaults applied.
func (f *RemoteFleet) epochArtifact(name string, epochN int, q EpochQuery) (art epochArtifact, err error) {
	et := f.epochTask(name)
	if et == nil && epochN <= 0 {
		return art, fmt.Errorf("netwide: no epoch task %q (a name this fleet did not deploy needs an explicit epoch)", name)
	}
	if epochN <= 0 {
		epochN = int(et.latest.Load())
	}
	if epochN == 0 {
		return art, fmt.Errorf("netwide: epoch task %q has no completed epoch yet (rotate first)", name)
	}
	st := f.mergeStats()
	if st != nil {
		st.EpochQueries.Add(1)
	}
	var fe *frozenEpoch
	if et != nil {
		et.mu.Lock()
		fe = et.window[epochN]
		if fe == nil {
			et.mu.Unlock()
		}
	}
	if fe == nil {
		// Not this fleet's to keep (evicted from the window, never rotated
		// to, or never deployed by it): asked of the switches, never stored,
		// and with no mirror copy to hold their layouts to but each other.
		art.rows, art.report, err = f.mergeEpoch(name, epochN, q, &layoutRef{})
		return art, err
	}
	var lead, wait chan struct{}
	art, hit := fe.merged[q.Op]
	if !hit {
		if wait = fe.filling[q.Op]; wait == nil {
			lead = make(chan struct{})
			fe.filling[q.Op] = lead
		}
	}
	et.mu.Unlock()
	if wait != nil {
		<-wait
		et.mu.Lock()
		art, hit = fe.merged[q.Op]
		et.mu.Unlock()
	}
	if hit {
		if st != nil {
			st.EpochCacheHits.Add(1)
		}
		if f.opts.Tracer != nil {
			f.startRoot("epoch_query", fmt.Sprintf("%s epoch=%d op=%s cached", name, epochN, q.Op)).Finish(nil)
		}
		art.report.Cached = true
		return art, nil
	}
	art.cms = fe.cms
	art.rows, art.report, err = f.mergeEpoch(name, epochN, q, pinnedLayout(fe.fingerprint))
	et.mu.Lock()
	if err == nil && !art.report.Partial() && len(art.report.Contributed) == len(f.clients) {
		fe.merged[q.Op] = art
	}
	if lead != nil {
		delete(fe.filling, q.Op)
		close(lead)
	}
	et.mu.Unlock()
	return art, err
}

// mergeEpoch fans the epoch read out to every switch and reduces the
// answers whose layout ref admits through the merge tree.
func (f *RemoteFleet) mergeEpoch(name string, epochN int, q EpochQuery, ref *layoutRef) (_ [][]uint32, _ QueryReport, err error) {
	root := f.opts.Tracer.StartRoot("epoch_query")
	if root != nil {
		root.SetDetail(fmt.Sprintf("%s epoch=%d policy=%s", name, epochN, q.Policy))
	}
	defer func() { root.Finish(err) }()
	if st := f.mergeStats(); st != nil {
		st.EpochCacheMisses.Add(1)
	}
	// The fan-out deadline must leave room for straggler polling on top
	// of the usual per-op budget.
	timeout := f.opts.OpTimeout
	if timeout > 0 && q.Policy != StragglerSkip {
		timeout += q.Wait
	}
	return f.mergeQuery(root.Context(), timeout, name, "read_epoch", epochN, q, ref,
		func(i int, c *rpc.Client, sc tracing.SpanContext) (*rpc.RegistersResult, error) {
			res, err := f.pollEpoch(c, name, epochN, q, sc)
			if err != nil {
				return nil, err
			}
			if res.Epoch != epochN {
				return nil, fmt.Errorf("netwide: daemon %d answered epoch %d for requested epoch %d", i, res.Epoch, epochN)
			}
			return &res.RegistersResult, nil
		})
}
