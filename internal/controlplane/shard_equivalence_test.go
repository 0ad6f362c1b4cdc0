package controlplane

import (
	"testing"

	"flymon/internal/packet"
	"flymon/internal/telemetry"
	"flymon/internal/trace"
)

// Per-algorithm property test for the sharded execution mode: deploy every
// installable algorithm on a sharded controller and on a plain one, replay
// the same trace (sequentially on the plain controller — the ApplySeq
// ground truth — and through the sharded worker pool on the other), then
// compare.
//
// Where the algorithm's updates are exactly mergeable and deterministic,
// the drained register state must be bit-identical to the sequential
// replay — the merge-equivalence acceptance criterion. Algorithms whose
// rules consume the result bus (SuMax's min chain, Counter Braids'
// PrevResult key, max-interval's old-timestamp subtraction) must compile
// to zero sharded rules: the engine's safety is the fallback verdict
// itself, and their parallel execution is interleaving-dependent by
// nature, so only the verdict — not bit equality — is asserted.

type algCase struct {
	name string
	spec TaskSpec
	// sharded: the compiled snapshot must route at least one rule to lanes
	// (false: must route none — the conservative fallback).
	sharded bool
	// exact: drained sharded state must equal the sequential replay
	// bit-for-bit.
	exact bool
}

func shardAlgCases() []algCase {
	key := packet.KeyFiveTuple
	return []algCase{
		{"cms", TaskSpec{Name: "cms", Key: key, Attribute: AttrFrequency,
			MemBuckets: 4096, D: 3}, true, true},
		{"mrac", TaskSpec{Name: "mrac", Key: key, Attribute: AttrFrequency,
			Algorithm: AlgMRAC, MemBuckets: 4096}, true, true},
		{"bloom", TaskSpec{Name: "bloom", Attribute: AttrExistence,
			Param: ParamSpec{Kind: ParamFlowKey, Key: key}, MemBuckets: 2048, D: 3}, true, true},
		{"linearcounting", TaskSpec{Name: "lc", Attribute: AttrDistinct,
			Algorithm: AlgLinearCounting, Param: ParamSpec{Kind: ParamFlowKey, Key: key},
			MemBuckets: 2048}, true, true},
		{"hll", TaskSpec{Name: "hll", Attribute: AttrDistinct,
			Param: ParamSpec{Kind: ParamFlowKey, Key: key}, MemBuckets: 1024}, true, true},
		{"beaucoup", TaskSpec{Name: "bc", Key: packet.KeyDstIP, Attribute: AttrDistinct,
			Param:     ParamSpec{Kind: ParamFlowKey, Key: packet.KeySrcIP},
			Threshold: 16, MemBuckets: 2048, D: 2}, true, true},
		{"sumaxmax", TaskSpec{Name: "smm", Key: key, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamQueueLength}, MemBuckets: 4096, D: 3}, true, true},
		// Tower's per-level saturation thresholds sit below the register
		// mask — a real global-state condition — so it must fall back; its
		// uniform increments still make the CAS path order-independent.
		{"tower", TaskSpec{Name: "tower", Key: key, Attribute: AttrFrequency,
			Algorithm: AlgTower, MemBuckets: 4096, D: 3}, false, true},
		// Result-bus consumers: fallback verdict only.
		{"sumaxsum", TaskSpec{Name: "sms", Key: key, Attribute: AttrFrequency,
			Algorithm: AlgSuMaxSum, MemBuckets: 4096, D: 3}, false, false},
		{"counterbraids", TaskSpec{Name: "cb", Key: key, Attribute: AttrFrequency,
			Algorithm: AlgCounterBraids, MemBuckets: 4096}, false, false},
		{"maxinterval", TaskSpec{Name: "mi", Key: key, Attribute: AttrMax,
			Param: ParamSpec{Kind: ParamPacketInterval}, MemBuckets: 2048}, false, false},
	}
}

func TestShardedAlgorithmEquivalence(t *testing.T) {
	const workers = 4
	tr := trace.Generate(trace.Config{Flows: 800, Packets: 30_000, Seed: 17, ZipfS: 1.3})
	for _, c := range shardAlgCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Groups: 3, Buckets: 8192, BitWidth: 32}
			seq := NewController(cfg)
			reg := telemetry.NewRegistry()
			cfg.ShardedState, cfg.Workers, cfg.Telemetry = true, workers, reg
			sh := NewController(cfg)
			defer seq.Close()
			defer sh.Close()

			seqTask, err := seq.AddTask(c.spec)
			if err != nil {
				t.Fatalf("sequential deploy: %v", err)
			}
			shTask, err := sh.AddTask(c.spec)
			if err != nil {
				t.Fatalf("sharded deploy: %v", err)
			}

			// The verdicts as an operator sees them: flymon_sharded_rules
			// and flymon_fallback_rules.
			dp := reg.Report().DataPlane
			if c.sharded && dp.ShardedRules == 0 {
				t.Fatalf("expected sharded rules, got verdicts (%d, %d)",
					dp.ShardedRules, dp.FallbackRules)
			}
			if !c.sharded && dp.ShardedRules != 0 {
				t.Fatalf("expected full fallback, got %d sharded rules", dp.ShardedRules)
			}
			if !sh.Sharded() || sh.Workers() != workers {
				t.Fatalf("Sharded() = %v, Workers() = %d, want true, %d", sh.Sharded(), sh.Workers(), workers)
			}

			seq.ProcessBatch(tr.Packets)
			// Split the sharded replay into two drains with a query in the
			// middle: the drain-then-continue path must stay exact.
			half := len(tr.Packets) / 2
			replayPackets(sh, tr.Packets[:half])
			if _, err := sh.ReadRegisters(shTask.ID); err != nil {
				t.Fatalf("mid-run readout: %v", err)
			}
			replayPackets(sh, tr.Packets[half:])

			got, err := sh.ReadRegisters(shTask.ID)
			if err != nil {
				t.Fatal(err)
			}
			want, err := seq.ReadRegisters(seqTask.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !c.exact {
				// Interleaving-dependent algorithms: just confirm both
				// replays produced state and queries work.
				if len(got) != len(want) {
					t.Fatalf("row count %d != %d", len(got), len(want))
				}
				return
			}
			if len(got) != len(want) {
				t.Fatalf("row count %d != %d", len(got), len(want))
			}
			for r := range want {
				for i := range want[r] {
					if got[r][i] != want[r][i] {
						t.Fatalf("row %d bucket %d: sharded %d, sequential %d",
							r, i, got[r][i], want[r][i])
					}
				}
			}
		})
	}
}

// TestShardedQueryEquivalence drives the high-level query surface (the
// analysis paths operators actually use) on both modes and compares
// numeric results for the exactly-mergeable algorithms.
func TestShardedQueryEquivalence(t *testing.T) {
	const workers = 4
	tr := trace.Generate(trace.Config{Flows: 500, Packets: 20_000, Seed: 29, ZipfS: 1.3})
	cfg := Config{Groups: 2, Buckets: 8192, BitWidth: 32}
	seq := NewController(cfg)
	reg := telemetry.NewRegistry()
	cfg.ShardedState, cfg.Workers, cfg.Telemetry = true, workers, reg
	sh := NewController(cfg)
	defer seq.Close()
	defer sh.Close()

	freq := TaskSpec{Name: "hh", Key: packet.KeyFiveTuple, Attribute: AttrFrequency,
		MemBuckets: 8192, D: 3}
	card := TaskSpec{Name: "card", Attribute: AttrDistinct,
		Param: ParamSpec{Kind: ParamFlowKey, Key: packet.KeyFiveTuple}, MemBuckets: 1024}
	var ids [2][2]int // [controller][task]
	for ci, ctrl := range []*Controller{seq, sh} {
		for ti, spec := range []TaskSpec{freq, card} {
			task, err := ctrl.AddTask(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids[ci][ti] = task.ID
		}
	}
	seq.ProcessBatch(tr.Packets)
	replayPackets(sh, tr.Packets)

	k := packet.KeyFiveTuple.Extract(&tr.Packets[0])
	seqEst, err := seq.EstimateKey(ids[0][0], k)
	if err != nil {
		t.Fatal(err)
	}
	shEst, err := sh.EstimateKey(ids[1][0], k)
	if err != nil {
		t.Fatal(err)
	}
	if seqEst != shEst {
		t.Fatalf("EstimateKey: sharded %v, sequential %v", shEst, seqEst)
	}
	seqCard, err := seq.Cardinality(ids[0][1])
	if err != nil {
		t.Fatal(err)
	}
	shCard, err := sh.Cardinality(ids[1][1])
	if err != nil {
		t.Fatal(err)
	}
	if seqCard != shCard {
		t.Fatalf("Cardinality: sharded %v, sequential %v", shCard, seqCard)
	}
	// The drain families must show the query path actually folded lanes.
	var folded, buckets uint64
	for _, f := range reg.Report().Families {
		switch f.Name {
		case "flymon_lane_drains_total":
			folded = f.Samples[0].Value // outcome="folded"
		case "flymon_lane_buckets_folded_total":
			buckets = f.Samples[0].Value
		}
	}
	if folded == 0 || buckets == 0 {
		t.Fatalf("drains recorded after queries: %d folding %d buckets, want both > 0", folded, buckets)
	}
}

// TestShardedMutationsDrainLanes exercises the mutation paths that clear or
// move register memory under sharded mode: resize reads complete merged
// state, removal and reset must not resurrect stale lane values.
func TestShardedMutationsDrainLanes(t *testing.T) {
	const workers = 4
	tr := trace.Generate(trace.Config{Flows: 300, Packets: 10_000, Seed: 31})
	cfg := Config{Groups: 2, Buckets: 8192, BitWidth: 32, ShardedState: true, Workers: workers}
	c := NewController(cfg)
	defer c.Close()
	task, err := c.AddTask(TaskSpec{Name: "t", Key: packet.KeyFiveTuple,
		Attribute: AttrFrequency, MemBuckets: 4096, D: 3})
	if err != nil {
		t.Fatal(err)
	}
	replayPackets(c, tr.Packets)

	// Resize must return the complete (drained) old state: its total count
	// equals the packets each row absorbed.
	old, err := c.ResizeTask(task.ID, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for r := range old {
		var sum uint64
		for _, v := range old[r] {
			sum += uint64(v)
		}
		if sum != uint64(len(tr.Packets)) {
			t.Fatalf("row %d pre-resize sum %d, want %d (drain incomplete)", r, sum, len(tr.Packets))
		}
	}

	// After the resize the fresh deployment starts at zero even though the
	// old lanes were written — stale lane state must not leak in.
	got, err := c.ReadRegisters(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		for i, v := range got[r] {
			if v != 0 {
				t.Fatalf("row %d bucket %d = %d after resize, want 0", r, i, v)
			}
		}
	}

	// Write lanes again, reset, and confirm a following drain folds nothing
	// back into the cleared partition.
	replayPackets(c, tr.Packets)
	if err := c.ResetTaskCounters(task.ID); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadRegisters(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		for i, v := range got[r] {
			if v != 0 {
				t.Fatalf("row %d bucket %d = %d after reset, want 0 (lane resurrected)", r, i, v)
			}
		}
	}
}
