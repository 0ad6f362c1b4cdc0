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
// (internal/netwide/mergetree.go) and the epoch-coherent readout path:
// tree shape gauges, interior-merge latency by level, and the straggler
// policy outcomes of epoch queries.
type MergeTreeStats struct {
	Queries      atomic.Uint64 // merge-tree queries executed
	Merges       atomic.Uint64 // interior merge nodes executed
	EpochQueries atomic.Uint64 // queries pinned to an epoch boundary

	// Epoch artifact store: a completed epoch is merged once and then read.
	EpochCacheHits   atomic.Uint64 // epoch queries served from a stored complete merge
	EpochCacheMisses atomic.Uint64 // epoch queries that went to the fleet

	LastDepth  atomic.Uint64 // gauge: depth of the last completed tree
	LastFanout atomic.Uint64 // gauge: leaves merged by the last completed tree

	MergeLatency Histogram              // one interior merge node
	LevelLatency [MergeLevels]Histogram // merge latency by tree level

	// Straggler policy outcomes (epoch-coherent queries only).
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

// MergeTreeReport is the serializable form of MergeTreeStats.
type MergeTreeReport struct {
	Queries          uint64 `json:"queries"`
	Merges           uint64 `json:"merges"`
	EpochQueries     uint64 `json:"epoch_queries"`
	EpochCacheHits   uint64 `json:"epoch_cache_hits"`
	EpochCacheMisses uint64 `json:"epoch_cache_misses"`
	LastDepth        uint64 `json:"last_depth"`
	LastFanout       uint64 `json:"last_fanout"`

	MergeLatency HistogramSnapshot              `json:"merge_latency"`
	LevelLatency [MergeLevels]HistogramSnapshot `json:"level_latency"`

	StragglerWaits     uint64            `json:"straggler_waits"`
	StragglersSkipped  uint64            `json:"stragglers_skipped"`
	StragglersTimedOut uint64            `json:"stragglers_timed_out"`
	StragglerWait      HistogramSnapshot `json:"straggler_wait"`
}

// Snapshot folds the merge-tree counters into a plain value.
func (m *MergeTreeStats) Snapshot() MergeTreeReport {
	r := MergeTreeReport{
		Queries:            m.Queries.Load(),
		Merges:             m.Merges.Load(),
		EpochQueries:       m.EpochQueries.Load(),
		EpochCacheHits:     m.EpochCacheHits.Load(),
		EpochCacheMisses:   m.EpochCacheMisses.Load(),
		LastDepth:          m.LastDepth.Load(),
		LastFanout:         m.LastFanout.Load(),
		MergeLatency:       m.MergeLatency.Snapshot(),
		StragglerWaits:     m.StragglerWaits.Load(),
		StragglersSkipped:  m.StragglersSkipped.Load(),
		StragglersTimedOut: m.StragglersTimedOut.Load(),
		StragglerWait:      m.StragglerWait.Snapshot(),
	}
	for i := range m.LevelLatency {
		r.LevelLatency[i] = m.LevelLatency[i].Snapshot()
	}
	return r
}
