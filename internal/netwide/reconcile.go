// Reconciler: self-healing anti-entropy for the fleet's task set.
//
// The RemoteFleet's task table IS the desired state — every task the
// operator deployed and has not removed. A daemon that crashes and restarts
// comes back empty; a Remove that partially failed leaves a straggler
// holding a tombstoned task. The reconciler periodically (and on every
// rejoin) diffs each Up switch's observed task list, by name, against the
// desired set and repairs the difference: a missing task is re-deployed with
// a plain add_task and the ID the switch gave it recorded, then its layout
// fingerprint is held to the mirror's — a copy that came back indexed
// differently (the daemon refilled its groups in another order than the
// fleet first filled them) is reported as diverged, every pass, and queries
// leave that switch out until an operator re-creates the task fleet-wide;
// tombstoned removals are driven to completion. Every repair lands in the
// reconfiguration journal. Epoch tasks are not reconciled.
package netwide

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flymon/internal/rpc"
)

// ReconcileResult summarizes one anti-entropy pass.
type ReconcileResult struct {
	Switches   int // switches inspected (Up or liveness-off)
	Skipped    int // switches ejected by liveness and left alone
	Redeployed int // tasks re-installed
	Removed    int // tombstoned tasks removed from stragglers
	Finalized  int // tombstones confirmed gone fleet-wide and dropped
	Errors     []error
}

func (r ReconcileResult) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	parts := make([]string, len(r.Errors))
	for i, e := range r.Errors {
		parts[i] = e.Error()
	}
	return fmt.Errorf("netwide: reconcile: %s", strings.Join(parts, "; "))
}

// Reconcile runs one anti-entropy pass over every non-ejected switch and
// returns what it repaired. It is safe to call concurrently with fleet
// operations and with the background reconciler (passes serialize on the
// fleet's reconcile lock so two passes never double-deploy).
func (f *RemoteFleet) Reconcile() ReconcileResult {
	f.reconMu.Lock()
	defer f.reconMu.Unlock()
	if f.opts.Telemetry != nil {
		f.opts.Telemetry.ReconcileRuns.Add(1)
	}
	root := f.startRoot("reconcile", "")

	// Snapshot the desired state in deployment order (the mirror's IDs
	// ascend with it): a wiped daemon refilled in the order the fleet first
	// filled it places every task where the mirror did, as long as no
	// removal has left a gap. Tombstoned tasks are desired-ABSENT.
	f.mu.Lock()
	var desired, tombs []*fleetTask
	for _, t := range f.tasks {
		switch {
		case t.epoch != nil:
		case t.tombstoned:
			tombs = append(tombs, t)
		default:
			desired = append(desired, t)
		}
	}
	f.mu.Unlock()
	sort.Slice(desired, func(i, j int) bool { return desired[i].mirrorID < desired[j].mirrorID })
	setRemote := func(t *fleetTask, i, id int) {
		f.mu.Lock()
		t.remote[i] = id
		f.mu.Unlock()
	}

	var res ReconcileResult
	fail := func(err error) {
		res.Errors = append(res.Errors, err)
		if f.opts.Telemetry != nil {
			f.opts.Telemetry.ReconcileErrors.Add(1)
		}
	}
	// Tombstone completion is fleet-wide: a tombstone may be dropped only
	// after a pass in which EVERY switch was inspected and confirmed clean.
	tombDirty := make(map[*fleetTask]bool)
	allInspected := true

	for i, c := range f.clients {
		if _, ejected := f.health.ejected(i); ejected {
			res.Skipped++
			allInspected = false
			continue
		}
		res.Switches++
		swSp := traceSpan(f.opts.Tracer, root.Context(), "switch")
		swSp.SetSwitch(i)
		swSp.SetDetail(c.Addr())
		sc := swSp.Context()
		tasks, err := c.ListTasks(sc)
		if err != nil {
			// The first call after a daemon restart fails on the stale
			// connection (and tears it down); one retry lands on a fresh
			// dial. list_tasks is idempotent, so this is always safe.
			tasks, err = c.ListTasks(sc)
		}
		if err != nil {
			fail(fmt.Errorf("switch %d: list: %w", i, err))
			allInspected = false
			swSp.Finish(err)
			continue
		}
		observed := make(map[string]rpc.TaskResult, len(tasks))
		for _, t := range tasks {
			observed[t.Name] = t
		}

		// Complete tombstoned removals on this switch.
		for _, t := range tombs {
			name := t.spec.Name
			if ot, present := observed[name]; present {
				if err := c.RemoveTask(ot.ID, sc); err != nil && !isCode(err, rpc.CodeNoTask) {
					fail(fmt.Errorf("switch %d: tombstone %q: %w", i, name, err))
					tombDirty[t] = true
					continue
				}
				res.Removed++
				f.journal("redeploy", ot.ID, fmt.Sprintf("switch %d: completed tombstoned removal of %q", i, name), nil)
			}
			setRemote(t, i, 0)
		}

		// Re-deploy whatever the desired set has that the switch lost, and
		// count the tasks it holds the way the mirror does.
		aligned := 0
		for _, t := range desired {
			name := t.spec.Name
			ot, present := observed[name]
			if !present {
				if ot, err = c.AddTask(t.spec, sc); err != nil {
					fail(fmt.Errorf("switch %d: redeploy %q: %w", i, name, err))
					f.journal("redeploy", 0, fmt.Sprintf("switch %d: redeploy of %q failed", i, name), err)
					continue
				}
				res.Redeployed++
				if f.opts.Telemetry != nil {
					f.opts.Telemetry.Redeploys.Add(1)
				}
			}
			setRemote(t, i, ot.ID)
			var diverged error
			if ot.Fingerprint != t.fingerprint {
				diverged = layoutDiverged(i, name, ot.Fingerprint, t.fingerprint)
				fail(diverged)
			} else {
				aligned++
			}
			if !present || diverged != nil {
				f.journal("redeploy", ot.ID, fmt.Sprintf("switch %d: %q deployed as id %d", i, name, ot.ID), diverged)
			}
		}

		f.health.setTasks(i, len(desired), aligned)
		swSp.Finish(nil)
	}

	// Finalize tombstones confirmed absent on every switch this pass.
	if allInspected {
		f.mu.Lock()
		for _, t := range tombs {
			if tombDirty[t] || f.tasks[t.spec.Name] != t {
				continue // not clean yet, or a concurrent manual Remove finalized it
			}
			_ = f.mirror.RemoveTask(t.mirrorID)
			delete(f.tasks, t.spec.Name)
			res.Finalized++
		}
		f.mu.Unlock()
	}
	root.SetDetail(fmt.Sprintf("switches=%d redeployed=%d removed=%d skipped=%d",
		res.Switches, res.Redeployed, res.Removed, res.Skipped))
	root.Finish(res.Err())
	return res
}

// reconciler drives periodic Reconcile passes plus on-demand passes when
// a switch rejoins (so a restarted daemon is repaired within one poke,
// not one interval).
type reconciler struct {
	f        *RemoteFleet
	interval time.Duration
	poke     chan struct{}
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// StartReconciler launches the background reconciliation loop (one pass
// every interval, plus immediately after any switch rejoins). Stop (on
// the fleet) terminates it.
func (f *RemoteFleet) StartReconciler(interval time.Duration) {
	if f.recon.Load() != nil {
		return
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	r := &reconciler{
		f:        f,
		interval: interval,
		poke:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if !f.recon.CompareAndSwap(nil, r) {
		return
	}
	r.wg.Add(1)
	go r.run()
}

func (r *reconciler) run() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		case <-r.poke:
		}
		res := r.f.Reconcile()
		_ = res
	}
}

func (r *reconciler) stop() {
	r.once.Do(func() { close(r.done) })
	r.wg.Wait()
}

// pokeReconciler requests an immediate pass (coalescing with any pending
// request). No-op when the background reconciler is not running.
func (f *RemoteFleet) pokeReconciler() {
	r := f.recon.Load()
	if r == nil {
		return
	}
	select {
	case r.poke <- struct{}{}:
	default:
	}
}
