package telemetry

import (
	"sync/atomic"
	"time"
)

// MergeLevels bounds the per-level latency histograms of the merge tree.
// Level 0 is a leaf-adjacent merge; with the default arity of 4 a
// 256-switch fleet is depth 4, so 8 levels covers any fleet this repo can
// simulate (deeper merges fold into the last bucket).
const MergeLevels = 8

// MergeTreeStats instruments the fleet query plane's parallel merge tree
// (internal/netwide/mergetree.go) and the epoch readout path around it:
// tree shape gauges, interior-merge latency by level, artifact-store hits
// and misses, and the straggler policy outcomes.
type MergeTreeStats struct {
	Queries atomic.Uint64 // merge-tree queries executed
	Merges  atomic.Uint64 // interior merge nodes executed

	// Epoch artifact store: a completed epoch is merged once and then read.
	EpochCacheHits   atomic.Uint64 // epoch queries served from a stored complete merge
	EpochCacheMisses atomic.Uint64 // epoch queries that went to the fleet

	LastDepth  atomic.Uint64 // gauge: depth of the last completed tree
	LastFanout atomic.Uint64 // gauge: leaves merged by the last completed tree

	MergeLatency Histogram              // one interior merge node
	LevelLatency [MergeLevels]Histogram // merge latency by tree level

	// Straggler policy outcomes.
	StragglerWaits     atomic.Uint64 // switches waited on that caught up in time
	StragglersSkipped  atomic.Uint64 // switches dropped without waiting (skip policy)
	StragglersTimedOut atomic.Uint64 // switches still behind when the wait bound expired
	StragglerWait      Histogram     // time spent polling a behind switch
}

// ObserveLevel records one interior merge's latency at a tree level.
func (m *MergeTreeStats) ObserveLevel(level int, d time.Duration) {
	if level < 0 {
		level = 0
	}
	if level >= MergeLevels {
		level = MergeLevels - 1
	}
	m.LevelLatency[level].Observe(d)
}

// collect declares the merge-tree families. Per-level latency is one
// family labelled level, with a series for each level that has merged.
func (m *MergeTreeStats) collect(c *catalogue) {
	c.counter("flymon_fleet_merge_queries_total", "Merge-tree fleet queries executed.", sample(m.Queries.Load()))
	c.counter("flymon_fleet_merge_nodes_total", "Interior merge nodes executed by the merge tree.", sample(m.Merges.Load()))
	c.counter("flymon_fleet_epoch_cache_total", "Epoch queries by artifact-store result (hit = served from a stored complete merge).",
		sample(m.EpochCacheHits.Load(), "result", "hit"),
		sample(m.EpochCacheMisses.Load(), "result", "miss"))
	c.gauge("flymon_fleet_merge_depth", "Depth of the last completed merge tree.", sample(m.LastDepth.Load()))
	c.gauge("flymon_fleet_merge_fanout", "Leaves merged by the last completed merge tree.", sample(m.LastFanout.Load()))
	c.counter("flymon_fleet_merge_stragglers_total", "Epoch-query straggler outcomes by policy result.",
		sample(m.StragglerWaits.Load(), "outcome", "caught_up"),
		sample(m.StragglersSkipped.Load(), "outcome", "skipped"),
		sample(m.StragglersTimedOut.Load(), "outcome", "timed_out"))
	c.histogram("flymon_fleet_merge_latency_seconds", "Latency of one interior merge node.", histSample(m.MergeLatency.Snapshot()))
	var levels []Sample
	for lvl := range m.LevelLatency {
		if h := m.LevelLatency[lvl].Snapshot(); h.Count > 0 {
			levels = append(levels, histSample(h, "level", itoa(lvl)))
		}
	}
	c.histogram("flymon_fleet_merge_level_latency_seconds", "Latency of interior merges by tree level.", levels...)
	c.histogram("flymon_fleet_merge_straggler_wait_seconds", "Time spent polling epoch stragglers.", histSample(m.StragglerWait.Snapshot()))
}
