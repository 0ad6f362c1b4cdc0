package netwide

import (
	"errors"
	"fmt"
	"time"

	"flymon/internal/core/algorithms"
	"flymon/internal/dataplane"
	"flymon/internal/packet"
	"flymon/internal/rpc"
	"flymon/internal/telemetry"
	"flymon/internal/tracing"
)

// Epoch-coherent fleet readouts: "everyone's state for epoch E".
//
// Every fleet-wide answer covers one epoch. Each switch runs the same
// epoch.Rotator (the paper's freeze-and-divert reallocation: allocate a new
// copy, freeze the original), the fleet controller decrees rotations with
// an explicit target epoch (idempotent, so retries and catch-ups converge),
// and each daemon answers the decree with the register snapshot it froze:
// the merge tree combines only same-epoch rows, so the answer is the
// traffic each switch saw up to its rotation however long the fan-out
// takes, and the merge is kept as an EpochArtifact that every query reads.
// An epoch the rotation could not collect whole is read from the daemons'
// snapshots by its first query instead. A switch that missed a rotation is
// a STRAGGLER: reachable, healthy, but behind. The straggler policy decides
// what a query does about it.

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
	// Op is the merge operation of QueryEpochRows' rows (default add).
	// Epoch and the typed answers ignore it: they merge under the op the
	// task's rules merge under exactly (see fleetOp).
	Op MergeOp
}

func (q EpochQuery) withDefaults() EpochQuery {
	if q.Wait <= 0 {
		q.Wait = DefaultEpochWait
	}
	return q
}

// mergeOps is the number of merge operations (MergeAdd..MergeXor).
const mergeOps = int(MergeXor) + 1

// storedEpoch is what the fleet keeps of one completed epoch. A rotated
// epoch can never change (daemon snapshots are immutable once taken), so
// it keeps the first COMPLETE merge per op — every switch contributed,
// none failed, none straggled — and every later query is a read of it. The
// rotation makes the first one, under the op it collects the epoch under;
// a query makes any other.
// Partial answers are returned to their caller but never stored: the next
// query goes back to the fleet and picks up a caught-up straggler by
// itself, which is all the invalidation there is.
type storedEpoch struct {
	// handle is the mirror's frozen copy of this epoch, captured at
	// rotation. The mirror reclaims the copy a rotation later, but a
	// Readout reads only its placement — the units' fixed CRC tables, the
	// row selectors, the partitions and the translation method — so it
	// indexes the merged rows for as long as they are kept.
	handle any
	// fingerprint is the layout of the mirror's frozen copy: what every
	// switch's snapshot of this epoch must carry to enter its merge.
	fingerprint uint64
	merges      [mergeOps]storedMerge // indexed by MergeOp
}

// storedMerge is one op's merge of a stored epoch.
type storedMerge struct {
	rows   [][]uint32 // nil until a complete merge is stored
	report QueryReport
	// answers is the epoch's handle bound to rows, once, when a merge
	// under the task's own op is stored (unbound under any other op).
	answers algorithms.Readout
	filling chan struct{} // closed when the in-flight first merge ends
}

// EpochArtifact is one completed epoch of a task merged fleet-wide under
// the op its rules merge under exactly, with its provenance: the rows, the
// report of which switches went in at which epoch, and the mirror's frozen
// copy of that epoch bound to the rows. The typed answers read the rows
// through the decoder the switch's own queries use (algorithms.Readout),
// so each equals what one switch fed all the epoch's traffic answers. Rows
// and Report of a stored epoch are shared: treat them as read-only.
type EpochArtifact struct {
	Rows   [][]uint32
	Report QueryReport

	// answers is the mirror's frozen copy of the epoch bound to Rows;
	// unbound (every answer an error) for a name this fleet did not
	// deploy, or an epoch outside its window.
	answers algorithms.Readout
}

// ErrInexactMerge refuses a fleet answer for a task whose rows do not
// merge exactly: some rule conditions on or consumes state a switch's copy
// cannot see (SuMax(Sum)'s running minimum, Tower's and CounterBraids'
// saturation guards, MaxInterval's new-flow test), so no merge of the
// switches' rows equals one switch fed all their traffic.
var ErrInexactMerge = errors.New("netwide: the task's rows do not merge exactly across switches")

// fleetOp is the fleet merge op of a task whose rules all merge exactly
// under the data-plane op (controlplane.Task.Merge); false for OpNone.
func fleetOp(op dataplane.StatefulOp) (MergeOp, bool) {
	switch op {
	case dataplane.OpCondAdd:
		return MergeAdd, true
	case dataplane.OpMax:
		return MergeMax, true
	case dataplane.OpAndOr:
		return MergeOr, true // shard-eligible AND-OR always takes the OR branch
	case dataplane.OpXor:
		return MergeXor, true
	}
	return 0, false
}

// Estimate returns key k's per-key estimate in this epoch, as
// Controller.EstimateKey answers it (frequency tasks: each packet measured
// at exactly one switch).
func (a EpochArtifact) Estimate(k packet.CanonicalKey) (float64, error) {
	return a.answers.EstimateKey(k)
}

// HeavyHitters returns the candidates whose estimate in this epoch meets
// the threshold, every candidate probed against the one merge.
func (a EpochArtifact) HeavyHitters(candidates []packet.CanonicalKey, threshold uint64) (map[packet.CanonicalKey]bool, error) {
	out := make(map[packet.CanonicalKey]bool)
	for _, k := range candidates {
		v, err := a.Estimate(k)
		if err != nil {
			return nil, err
		}
		if v >= float64(threshold) {
			out[k] = true
		}
	}
	return out, nil
}

// Cardinality returns a distinct-count task's estimate in this epoch
// (HLL ranks max-merged, LinearCounting bitmaps OR-merged: duplicate
// observation across switches is harmless).
func (a EpochArtifact) Cardinality() (float64, error) { return a.answers.Cardinality() }

// Contains reports Bloom membership of key k in this epoch.
func (a EpochArtifact) Contains(k packet.CanonicalKey) (bool, error) { return a.answers.Contains(k) }

// Reported returns the candidates a detection task reports in this epoch
// (BeauCoup coupon bitmaps OR-merged: a coupon collected anywhere is
// collected).
func (a EpochArtifact) Reported(candidates []packet.CanonicalKey) (map[packet.CanonicalKey]bool, error) {
	return a.answers.Reported(candidates)
}

// stragglerError marks "reachable but behind" inside a fan-out, so the
// report can separate stragglers from failures.
type stragglerError struct {
	want, have int
}

func (e *stragglerError) Error() string {
	return fmt.Sprintf("netwide: straggler: wants epoch %d, has %d", e.want, e.have)
}

// epochTask returns a deployed epoch task, or nil.
func (f *RemoteFleet) epochTask(name string) *fleetTask {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tasks[name]
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

// RotateEpoch ends the current epoch fleet-wide and collects it: the
// mirror rotates first (establishing the new target epoch), then every
// daemon is told to advance to that explicit target and answers with the
// target epoch's frozen rows, which stream into the merge tree as they
// arrive. A complete merge — every switch answered the target's rows in the
// mirror's layout — is stored as the epoch's artifact under the task's own
// op (add for a task whose rows do not merge exactly), so the epoch's first
// query is a stored read and the epoch stays answerable after a switch goes
// down. Anything less stores nothing, and the epoch's queries read the
// switches. The rotation's merge is not a query: the merge-tree telemetry
// does not count it.
//
// The daemon-side advance is idempotent, so transport failures are retried
// once, and a switch that misses this rotation entirely catches up —
// snapshotting the epochs it missed — on the next one. Failed switches
// become stragglers for queries in the meantime; with AllowPartial unset
// they also fail this call (the rotation itself, and the mirror, remain
// advanced either way — rotation is a decree, not a transaction). A switch
// that rotated but answered rows the merge may not take fails nothing: its
// epoch is just not collected.
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
	stored := new(storedEpoch)
	stored.handle, _ = f.mirror.TaskHandle(frozenID)
	if mt, err := f.mirror.Task(frozenID); err == nil {
		stored.fingerprint = mt.Fingerprint
	}
	// The rotation leads the epoch's first merge under op: a query that
	// asks for it meanwhile waits for the rotation's merge instead of
	// reading the switches itself.
	op := MergeAdd
	if et.exact {
		op = et.own
	}
	m := &stored.merges[op]
	lead := make(chan struct{})
	m.filling = lead
	et.window[target] = stored
	// Evicted rows go to the GC, not back into rowPool: callers of
	// QueryEpochRows may still hold them.
	delete(et.window, target-rpc.EpochRetain)
	et.mu.Unlock()
	if root != nil {
		root.SetDetail(fmt.Sprintf("%s to epoch %d", name, target))
	}
	ref := pinnedLayout(stored.fingerprint)
	rows, report, errs, mergeErr := f.mergeEpoch(root.Context(), name, target, op, f.opts.OpTimeout, nil,
		func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error) {
			return f.rotateFetch(i, c, name, target, ref, sc)
		})
	et.mu.Lock()
	if mergeErr == nil && rows != nil && len(report.Contributed) == len(f.clients) {
		m.rows, m.report = rows, report
		if et.exact {
			m.answers = algorithms.Bind(stored.handle, rows, et.spec.Threshold)
		}
		rows = nil
	}
	m.filling = nil
	close(lead)
	et.mu.Unlock()
	f.putRowBuf(rows)
	et.latest.Store(int64(target))
	if len(errs) > 0 && !f.opts.AllowPartial {
		return target, &PartialFailureError{Op: "epoch_rotate", Task: name, Failed: errs, Total: len(f.clients)}
	}
	return target, nil
}

// rotateFetch is RotateEpoch's per-switch step: decree the target epoch
// and take the daemon's answer, the target epoch's frozen rows, into a
// pooled leaf buffer. Explicit-target rotation is idempotent, so one
// immediate retry covers the applied-but-unacknowledged case. An answer
// the merge may not take — a layout other than ref's, or no rows because
// the target was evicted before a retry reached it — is no failure: the
// switch rotated, its epoch is just not collected (nil rows, nil error).
func (f *RemoteFleet) rotateFetch(i int, c *rpc.Client, name string, target int, ref *layoutRef, sc tracing.SpanContext) ([][]uint32, error) {
	buf, _ := f.rowPool.Get().([][]uint32)
	res, err := c.EpochRotateInto(name, target, buf, sc)
	var te *rpc.TransportError
	if errors.As(err, &te) {
		res, err = c.EpochRotateInto(name, target, buf, sc)
	}
	if err == nil && res.Epoch == target {
		if _, ok := ref.admits(res.Fingerprint); ok {
			return res.FrameRows(nil), nil
		}
	}
	f.putRowBuf(buf)
	if err != nil {
		return nil, fmt.Errorf("netwide: rotating %q to epoch %d on daemon %d: %w", name, target, i, err)
	}
	return nil, nil
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
// skip policy. The answer is held to epochN and to ref's layout, and read
// into a pooled leaf buffer that a failed fetch returns.
func (f *RemoteFleet) pollEpoch(i int, c *rpc.Client, name string, epochN int, q EpochQuery, ref *layoutRef, parent tracing.SpanContext) (_ [][]uint32, err error) {
	buf, _ := f.rowPool.Get().([][]uint32)
	defer func() {
		if err != nil {
			f.putRowBuf(buf)
		}
	}()
	st := f.mergeStats()
	start := time.Now()
	deadline := start.Add(q.Wait)
	poll := pollInterval(q.Wait)
	polled := false
	var waitSp *tracing.ActiveSpan
	for {
		res, err := c.ReadEpochInto(name, epochN, buf, parent)
		if err == nil {
			if polled {
				if st != nil {
					st.StragglerWaits.Add(1)
					st.StragglerWait.Observe(time.Since(start))
				}
				waitSp.SetDetail(fmt.Sprintf("epoch=%d caught up", epochN))
				waitSp.Finish(nil)
			}
			if res.Epoch != epochN {
				return nil, fmt.Errorf("netwide: daemon %d answered epoch %d for requested epoch %d", i, res.Epoch, epochN)
			}
			if want, ok := ref.admits(res.Fingerprint); !ok {
				return nil, layoutDiverged(i, name, res.Fingerprint, want)
			}
			return res.FrameRows(nil), nil
		}
		var behind *rpc.Error
		if !errors.As(err, &behind) || behind.Code != rpc.CodeEpochUnavailable {
			waitSp.Finish(err)
			return nil, err
		}
		have := behind.Have
		if have > epochN {
			// Not behind — ahead: the snapshot was already evicted by
			// retention. Waiting cannot bring it back.
			err = fmt.Errorf("netwide: epoch %d of %q evicted on this daemon (retention window passed): %w", epochN, name, err)
			waitSp.Finish(err)
			return nil, err
		}
		serr := &stragglerError{want: epochN, have: have}
		if q.Policy == StragglerSkip {
			if st != nil {
				st.StragglersSkipped.Add(1)
			}
			sp := traceSpan(f.opts.Tracer, parent, "straggler_skip")
			sp.SetDetail(fmt.Sprintf("want=%d have=%d", epochN, have))
			sp.Finish(serr)
			return nil, serr
		}
		if !time.Now().Before(deadline) {
			if st != nil {
				st.StragglersTimedOut.Add(1)
				st.StragglerWait.Observe(time.Since(start))
			}
			waitSp.SetDetail(fmt.Sprintf("want=%d have=%d", epochN, have))
			waitSp.Finish(serr)
			return nil, serr
		}
		if waitSp == nil {
			waitSp = traceSpan(f.opts.Tracer, parent, "straggler_wait")
		}
		polled = true
		time.Sleep(poll)
	}
}

// Epoch is the fleet's one query path: it resolves one completed epoch of
// an epoch task merged fleet-wide (epochN <= 0 = the fleet's latest) under
// the straggler policy, and answers every typed query from it. The report
// pins the epoch and separates stragglers (reachable, behind) from failures
// (unreachable, or a layout that diverged from the mirror's); transport
// failures still honor AllowPartial, and under the wait policy any switch
// still behind at the bound fails the whole query.
//
// The rows are merged under the one op the task's rules merge under
// exactly (see fleetOp), so the typed answers need none from the caller:
// q.Op is QueryEpochRows' alone. A task whose rows do not merge exactly
// is refused with ErrInexactMerge. The
// epoch's first complete merge under an op — the rotation's, under the
// task's own op, or a query's — is kept for rpc.EpochRetain rotations and
// queries are served from it without an RPC (Report.Cached), also while a
// switch is down. Concurrent first merges of one (epoch, op) fan out once:
// the rest wait and share the answer if it is complete; after a partial
// one each query runs its own under its own policy.
//
// A name this fleet did not deploy — an epoch task some other controller
// rotates, which is all a one-shot client like flymonctl query ever sees —
// is read from the switches at an explicit epoch, never stored, and has
// rows (merged under add, its algorithm unknown here) but no typed
// answers: the path epochs outside the window take too.
func (f *RemoteFleet) Epoch(name string, epochN int, q EpochQuery) (EpochArtifact, error) {
	return f.epoch(name, epochN, q, true)
}

// QueryEpochRows is the fleet's merged registers for one completed epoch,
// merged under q.Op (add by default, whatever the task's algorithm), with
// Epoch's report, straggler policy and store. Stored rows and
// report.Contributed are shared: treat them as read-only.
func (f *RemoteFleet) QueryEpochRows(name string, epochN int, q EpochQuery) ([][]uint32, QueryReport, error) {
	art, err := f.epoch(name, epochN, q, false)
	return art.Rows, art.Report, err
}

// EstimateKeyEpoch is Epoch's Estimate: the fleet-wide frequency of key k
// in exactly epoch E's traffic, read out of the stored merge: d cells of
// the merge the rotation stored. Only an epoch the rotation could not
// collect whole pays for a merge, on its first estimate.
func (f *RemoteFleet) EstimateKeyEpoch(name string, epochN int, k packet.CanonicalKey, q EpochQuery) (uint64, QueryReport, error) {
	art, err := f.Epoch(name, epochN, q)
	if err != nil {
		return 0, art.Report, err
	}
	v, err := art.Estimate(k)
	return uint64(v), art.Report, err
}

// epoch is Epoch (own: merge under the task's own op) and QueryEpochRows
// (merge under q.Op).
func (f *RemoteFleet) epoch(name string, epochN int, q EpochQuery, own bool) (art EpochArtifact, err error) {
	q = q.withDefaults()
	et := f.epochTask(name)
	if own {
		q.Op = MergeAdd
		if et != nil {
			if !et.exact {
				return art, fmt.Errorf("%w: epoch task %q (QueryEpochRows merges them under the op it is given)", ErrInexactMerge, name)
			}
			q.Op = et.own
		}
	}
	if et == nil && epochN <= 0 {
		return art, fmt.Errorf("netwide: no epoch task %q (a name this fleet did not deploy needs an explicit epoch)", name)
	}
	if epochN <= 0 {
		epochN = int(et.latest.Load())
	}
	if epochN == 0 {
		return art, fmt.Errorf("netwide: epoch task %q has no completed epoch yet (rotate first)", name)
	}
	if q.Op < MergeAdd || q.Op > MergeXor {
		return art, fmt.Errorf("netwide: unknown merge op %d", int(q.Op))
	}
	var stored *storedEpoch
	if et != nil {
		et.mu.Lock()
		if stored = et.window[epochN]; stored == nil {
			et.mu.Unlock()
		}
	}
	if stored == nil {
		// Not this fleet's to keep (evicted from the window, never rotated
		// to, or never deployed by it): asked of the switches, never stored,
		// and with no mirror copy to hold their layouts to but each other.
		art.Rows, art.Report, err = f.queryEpoch(name, epochN, q, &layoutRef{})
		return art, err
	}
	m := &stored.merges[q.Op]
	wait := m.filling
	var lead chan struct{}
	if m.rows == nil && wait == nil {
		lead = make(chan struct{})
		m.filling = lead
	}
	art.Rows, art.Report, art.answers = m.rows, m.report, m.answers
	et.mu.Unlock()
	if wait != nil {
		<-wait
		et.mu.Lock()
		art.Rows, art.Report, art.answers = m.rows, m.report, m.answers
		et.mu.Unlock()
	}
	if art.Rows != nil {
		if st := f.mergeStats(); st != nil {
			st.EpochCacheHits.Add(1)
		}
		if f.opts.Tracer != nil {
			f.startRoot("epoch_query", fmt.Sprintf("%s epoch=%d op=%s cached", name, epochN, q.Op)).Finish(nil)
		}
		art.Report.Cached = true
		return art, nil
	}
	art.Rows, art.Report, err = f.queryEpoch(name, epochN, q, pinnedLayout(stored.fingerprint))
	if et.exact && q.Op == et.own {
		// The merge under the task's own op carries the typed answers,
		// whichever caller made it.
		art.answers = algorithms.Bind(stored.handle, art.Rows, et.spec.Threshold)
	}
	et.mu.Lock()
	if err == nil && m.rows == nil && !art.Report.Partial() && len(art.Report.Contributed) == len(f.clients) {
		m.rows, m.report, m.answers = art.Rows, art.Report, art.answers
	}
	if lead != nil {
		m.filling = nil
		close(lead)
	}
	et.mu.Unlock()
	return art, err
}

// queryEpoch reads one epoch from the switches — pollEpoch under q's
// straggler policy, every readout held to ref's layout — merges it under
// q.Op and applies the partial policies to the outcome.
func (f *RemoteFleet) queryEpoch(name string, epochN int, q EpochQuery, ref *layoutRef) (_ [][]uint32, report QueryReport, err error) {
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
	rows, report, errs, err := f.mergeEpoch(root.Context(), name, epochN, q.Op, timeout, f.mergeStats(),
		func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error) {
			return f.pollEpoch(i, c, name, epochN, q, ref, sc)
		})
	var firstFailure error
	for _, i := range sortedKeys(errs) {
		if _, failed := report.Failed[i]; failed {
			firstFailure = errs[i]
			break
		}
	}
	switch {
	case err != nil:
	case q.Policy == StragglerWait && len(report.Stragglers) > 0:
		behind := make(map[int]error, len(report.Stragglers))
		for i := range report.Stragglers {
			behind[i] = errs[i]
		}
		err = &PartialFailureError{Op: "read_epoch", Task: name, Failed: behind, Total: len(f.clients)}
	case firstFailure != nil && !f.opts.AllowPartial:
		err = firstFailure
	case rows == nil:
		err = &PartialFailureError{Op: "read_epoch", Task: name, Failed: errs, Total: len(f.clients)}
	}
	if err != nil {
		f.putRowBuf(rows)
		return nil, report, err
	}
	if report.Partial() && f.opts.Telemetry != nil {
		f.opts.Telemetry.PartialMerges.Add(1)
	}
	return rows, report, nil
}

// mergeEpoch is the one place rows enter a merge: fan fetch out to every
// switch — the rotation's rotateFetch or a query's pollEpoch, each holding
// its switch's answer to the epoch and to a layout reference, so a switch
// indexed differently is never summed into the wrong buckets — and stream
// the rows it returns straight into the k-ary merge tree under op (leaf
// buffers recycled through the fleet's pool); then sort the
// per-switch errors into the report, stragglers apart from failures. A
// switch whose fetch returned neither rows nor an error is in neither.
// stats instruments the tree: a query's merge is counted, a rotation's is
// not (nil), so the merge-tree telemetry keeps counting queries.
func (f *RemoteFleet) mergeEpoch(parent tracing.SpanContext, name string, epochN int, op MergeOp, timeout time.Duration, stats *telemetry.MergeTreeStats,
	fetch func(i int, c *rpc.Client, sc tracing.SpanContext) ([][]uint32, error)) (_ [][]uint32, report QueryReport, errs map[int]error, err error) {
	stream := f.fanOutRows(parent, timeout, fetch)
	// The converter goroutine finishes all errs writes before closing
	// leaves, and MergeStream returns only after observing that close, so
	// reading errs afterwards is race-free.
	errs = make(map[int]error)
	leaves := make(chan Leaf, len(f.clients))
	go func() {
		defer close(leaves)
		for r := range stream {
			switch {
			case r.err != nil:
				errs[r.i] = r.err
			case r.rows != nil:
				leaves <- Leaf{Switch: r.i, Rows: r.rows}
			}
		}
	}()
	res, err := MergeStream(leaves, op, TreeOptions{
		Task:    name,
		Arity:   f.opts.MergeArity,
		Stats:   stats,
		Recycle: f.putRowBuf,
		Tracer:  f.opts.Tracer,
		Parent:  parent,
	})
	report = QueryReport{
		Contributed: res.Contributed,
		Failed:      make(map[int]string),
		Epoch:       epochN,
		Stragglers:  make(map[int]int),
	}
	for _, i := range sortedKeys(errs) {
		var se *stragglerError
		if errors.As(errs[i], &se) {
			report.Stragglers[i] = se.have
			continue
		}
		report.Failed[i] = errs[i].Error()
	}
	return res.Rows, report, errs, err
}
