package controlplane

import (
	"fmt"
	"time"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
)

// This file is the control plane's half of the telemetry plane: journaling
// every reconfiguration with its latency and snapshot-version transition,
// settling retired snapshots' derived counters, and answering the
// registry's scrape-time data-plane fold (the controller is the registry's
// DataPlaneSource).

// teleRetiredKeep bounds the retired-snapshot ring. A retired snapshot
// only accumulates straggler flushes from pooled contexts that last ran
// against it — at most teleFlushEvery-1 packets per idle context — so a
// short ring folds them all: by the time four newer snapshots have been
// published, every live context has re-armed.
const teleRetiredKeep = 4

// settleRetiredLocked folds every retired snapshot's unsettled counts into
// the durable registry counters and trims the ring. Callers hold c.mu.
func (c *Controller) settleRetiredLocked() {
	for _, s := range c.retired {
		s.TelemetrySettle()
	}
	if n := len(c.retired); n > teleRetiredKeep {
		c.retired = append(c.retired[:0], c.retired[n-teleRetiredKeep:]...)
	}
}

// teleMutation starts timing one reconfiguration and returns the recorder
// to invoke when it completes (with the task ID, a human-readable detail,
// and the outcome). The recorder observes the mutation-latency histogram
// and appends a journal event carrying the snapshot-version transition and
// the time the mutation's grace periods waited for in-flight readers. Both
// ends run under c.mu, so the version and grace reads are consistent. With
// telemetry off the recorder is a no-op.
func (c *Controller) teleMutation(kind string) func(task int, detail string, err error) {
	if c.tele == nil {
		return func(int, string, error) {}
	}
	start := time.Now()
	before, graceBefore := c.version, c.graceWaited
	return func(task int, detail string, err error) {
		lat := time.Since(start)
		c.tele.MutationLatency.Observe(lat)
		e := telemetry.Event{
			Kind:          kind,
			Task:          task,
			Detail:        detail,
			LatencyNs:     lat.Nanoseconds(),
			GraceNs:       (c.graceWaited - graceBefore).Nanoseconds(),
			VersionBefore: before,
			VersionAfter:  c.version,
			OK:            err == nil,
		}
		if err != nil {
			e.Err = err.Error()
		}
		c.tele.Journal.Record(e)
	}
}

// RekeyUnit reconfigures one of a group's compression units to extract a
// different flow key — the paper's on-the-fly attribute reconfiguration:
// the unit's hash lanes are rewired by a control-plane write, no pipeline
// reload. Every rule selecting that unit starts keying on the new
// attribute at the next published snapshot. The caller is responsible for
// the semantic cut-over (tasks keyed on the old attribute should be reset
// or removed first); stale register contents are not cleared.
func (c *Controller) RekeyUnit(group, unit int, spec packet.KeySpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := c.teleMutation("rekey")
	err := c.rekeyUnitLocked(group, unit, spec)
	done(0, fmt.Sprintf("group=%d unit=%d key=%s", group, unit, spec), err)
	return err
}

func (c *Controller) rekeyUnitLocked(group, unit int, spec packet.KeySpec) error {
	if group < 0 || group >= len(c.groups) {
		return fmt.Errorf("controlplane: no group %d", group)
	}
	if err := c.groups[group].ConfigureUnit(unit, spec); err != nil {
		return err
	}
	c.publishLocked()
	return nil
}

// TelemetryDataPlane implements telemetry.DataPlaneSource: it quiesces the
// writers enough for an honest read (drain sharded lanes, settle retired
// snapshots), folds the live snapshot's derived counts over the durable
// per-rule counters, and walks every register for occupancy and saturation
// gauges. Called by Registry.Report on every scrape.
func (c *Controller) TelemetryDataPlane() telemetry.DataPlane {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tele == nil {
		return telemetry.DataPlane{}
	}
	// Occupancy scans base buckets only; fold lanes first so sharded-mode
	// occupancy is not undercounted.
	c.drainShards()
	c.settleRetiredLocked()
	snap := c.snap.Load()
	dp := c.tele.FoldDataPlane(snap.TelemetryLive())
	dp.Packets = c.pipeline.Packets()
	dp.Recirculated = c.pipeline.Recirculated()
	dp.ShardedRules, dp.FallbackRules = snap.ShardedRules()
	// Accesses folds the lanes' plain single-writer counters, so no span
	// may run during the gauge walk of a register that has lanes.
	if c.sharded {
		c.procGate.Lock()
		defer c.procGate.Unlock()
	}
	for gi, g := range c.groups {
		for ci := 0; ci < g.CMUs(); ci++ {
			reg := g.CMU(ci).Register()
			dp.Registers = append(dp.Registers, telemetry.RegisterGauge{
				Group:    gi,
				CMU:      ci,
				Buckets:  reg.Size(),
				BitWidth: reg.BitWidth(),
				Occupied: reg.Occupancy(),
				Clamps:   reg.Clamps(),
				Accesses: reg.Accesses(),
				Lanes:    reg.Shards(),
			})
		}
	}
	return dp
}
