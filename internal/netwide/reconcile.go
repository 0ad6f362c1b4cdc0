// Reconciler: self-healing anti-entropy for the fleet's task set.
//
// The RemoteFleet's taskIDs/specs maps ARE the desired state — every task
// the operator deployed and has not removed. A daemon that crashes and
// restarts comes back empty; a Remove that partially failed leaves a
// straggler holding a tombstoned task. The reconciler periodically (and on
// every rejoin) diffs each Up switch's observed task list against the
// desired set and repairs the difference: missing tasks are re-deployed at
// their PINNED mirror IDs (AddTaskAt), so the restarted daemon's placement
// and future ID sequence realign with the rest of the fleet, and
// tombstoned removals are driven to completion. Every repair lands in the
// reconfiguration journal.
package netwide

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flymon/internal/controlplane"
)

// desiredTask is one entry of the desired state, ordered by pinned ID.
type desiredTask struct {
	name string
	id   int
	spec controlplane.TaskSpec
}

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

	// Snapshot the desired state. Tombstoned tasks are desired-ABSENT.
	f.mu.Lock()
	var desired []desiredTask
	tombs := make(map[string]int, len(f.tombstones))
	for name, id := range f.tombstones {
		tombs[name] = id
	}
	for name, id := range f.taskIDs {
		if _, dead := tombs[name]; dead {
			continue
		}
		desired = append(desired, desiredTask{name: name, id: id, spec: f.specs[name]})
	}
	f.mu.Unlock()
	// Pinned IDs must be replayed in ascending order so a freshly wiped
	// daemon's nextID never has to move backwards past a pinned slot.
	sort.Slice(desired, func(i, j int) bool { return desired[i].id < desired[j].id })

	var res ReconcileResult
	// Tombstone completion is fleet-wide: a tombstone may be dropped only
	// after a pass in which EVERY switch was inspected and confirmed clean.
	tombClean := make(map[string]bool, len(tombs))
	for name := range tombs {
		tombClean[name] = true
	}
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
			res.Errors = append(res.Errors, fmt.Errorf("switch %d: list: %w", i, err))
			if f.opts.Telemetry != nil {
				f.opts.Telemetry.ReconcileErrors.Add(1)
			}
			allInspected = false
			swSp.Finish(err)
			continue
		}
		observed := make(map[int]string, len(tasks))
		for _, t := range tasks {
			observed[t.ID] = t.Name
		}

		// Complete tombstoned removals on this switch.
		for name, id := range tombs {
			if _, present := observed[id]; !present {
				continue
			}
			if err := c.RemoveTask(id, sc); err != nil && !strings.Contains(err.Error(), "no task") {
				res.Errors = append(res.Errors, fmt.Errorf("switch %d: tombstone %q: %w", i, name, err))
				if f.opts.Telemetry != nil {
					f.opts.Telemetry.ReconcileErrors.Add(1)
				}
				tombClean[name] = false
				continue
			}
			delete(observed, id)
			res.Removed++
			f.journal("redeploy", id, fmt.Sprintf("switch %d: completed tombstoned removal of %q", i, name), nil)
		}

		// Re-deploy whatever the desired set has that the switch lost.
		for _, d := range desired {
			got, present := observed[d.id]
			if present {
				if got != d.name {
					err := fmt.Errorf("switch %d: task %d is %q, fleet expects %q — diverged, not repairing",
						i, d.id, got, d.name)
					res.Errors = append(res.Errors, err)
					if f.opts.Telemetry != nil {
						f.opts.Telemetry.ReconcileErrors.Add(1)
					}
					f.journal("redeploy", d.id, err.Error(), err)
				}
				continue
			}
			rt, err := c.AddTaskAt(d.id, d.spec, sc)
			if err != nil {
				res.Errors = append(res.Errors, fmt.Errorf("switch %d: redeploy %q: %w", i, d.name, err))
				if f.opts.Telemetry != nil {
					f.opts.Telemetry.ReconcileErrors.Add(1)
				}
				f.journal("redeploy", d.id, fmt.Sprintf("switch %d: redeploy of %q at id %d failed", i, d.name, d.id), err)
				continue
			}
			observed[rt.ID] = d.name
			res.Redeployed++
			if f.opts.Telemetry != nil {
				f.opts.Telemetry.Redeploys.Add(1)
			}
			f.journal("redeploy", d.id, fmt.Sprintf("switch %d: re-deployed %q at pinned id %d", i, d.name, d.id), nil)
		}

		f.health.setTasks(i, len(desired), len(observed))
		swSp.Finish(nil)
	}

	// Finalize tombstones confirmed absent on every switch this pass.
	if allInspected {
		f.mu.Lock()
		for name, id := range tombs {
			if !tombClean[name] {
				continue
			}
			if _, still := f.tombstones[name]; !still {
				continue // a concurrent manual Remove already finalized it
			}
			_ = f.mirror.RemoveTask(id)
			delete(f.taskIDs, name)
			delete(f.specs, name)
			delete(f.tombstones, name)
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
