package main

import (
	"flymon/internal/controlplane"
	"flymon/internal/packet"
)

// workload is one set of inputs the benchmark runs. Everything a run does
// follows from this struct and -seed; the smoke test shrinks copies of it.
type workload struct {
	name string
	why  string

	// Trace: files*frames packets over flows flows, Zipf 1.1, cut into
	// files FLYMTRC files in timestamp order.
	files, frames, flows int

	// rounds is the timed phase at the reference -seconds (refSeconds):
	// fixed work, the same on every commit.
	rounds int

	// churn runs one schedule period (churnPattern) per round: a replay
	// segment, then one control-plane mutation, eleven times.
	churn bool

	// Fleet workloads: daemons in-process flymond equivalents, each round a
	// cycle of (every daemon ingests one file, RotateEpoch, queries x
	// EstimateKeyEpoch). daemons == 0 is a single-controller ingest
	// workload.
	daemons, queries int
}

// refSeconds is the -seconds value the rounds fields are sized for: at
// that setting each timed phase takes 30-40 s on the seed code on the
// reference host (fast mode ~30 s, slow mode ~40 s; NOISE.md).
const refSeconds = 40

var workloads = []workload{
	{
		name:  "ingest_steady",
		why:   "nine 5-tuple CMS tasks over a 1M-frame trace with no reconfiguration: the data plane (mmtrace, hashing, core, dataplane) does all the work, control plane and fleet none",
		files: 8, frames: 131072, flows: 100_000,
		rounds: 800,
	},
	{
		name:  "ingest_churn",
		why:   "four tasks of different shapes on the generic update path with one add/resize/remove between every two 32k-frame replays: reconfigure while measuring, including the non-vectorisable fallback",
		files: 8, frames: 32768, flows: 100_000,
		rounds: 200, churn: true,
	},
	{
		name:  "fleet_query",
		why:   "eight daemons over loopback, small ingest, 64 epoch-pinned estimates per cycle: rpc, netwide fan-out and merge tree, and register readout dominate, the data plane does little",
		files: 8, frames: 4096, flows: 100_000,
		rounds: 330, daemons: 8, queries: 64,
	},
	{
		name:  "fleet_cycle",
		why:   "four daemons each ingesting 131k frames per cycle, rotate, 16 estimates: trace bytes to fleet-merged answer with ingest dominant; guards each plane against gains bought from the other",
		files: 4, frames: 131072, flows: 100_000,
		rounds: 900, daemons: 4, queries: 16,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	workers    = 1     // pool width of every controller, and of every replayer feeding one
	cmsBuckets = 16384 // buckets per CMS row; also the w of the e/w·N error bound
	cmsRows    = 3
)

// config is flymond's default data plane with one worker: per-core
// numbers, and on two vCPUs the only goroutines running during a round are
// the ring producer and the one pool worker. With a single worker the
// registers keep no private lanes (EnableSharding(1) is a no-op), so
// ingest_churn's ShardedState exercises the quiesce gate and the generic
// witness-carrying ApplyBatch path, not lane stores.
func (w *workload) config() controlplane.Config {
	return controlplane.Config{Groups: 9, Buckets: 65536, BitWidth: 32, Workers: workers, ShardedState: w.churn}
}

func freqSpec(name string) controlplane.TaskSpec {
	return controlplane.TaskSpec{
		Name: name, Key: packet.KeyFiveTuple,
		Attribute: controlplane.AttrFrequency, MemBuckets: cmsBuckets, D: cmsRows,
	}
}

// epochTask is the fleet workloads' epoch task name.
const epochTask = "freq"

// tasks are the long-lived tasks of the workload, deployed once in set-up.
// The first is always a five-tuple CMS: its rows must sum to the packets
// replayed whatever else happens on the pipeline.
func (w *workload) tasks() []controlplane.TaskSpec {
	switch {
	case w.churn:
		return []controlplane.TaskSpec{
			freqSpec("freq"),
			{
				Name: "spread", Key: packet.KeyDstIP, Attribute: controlplane.AttrDistinct,
				Param:     controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP},
				Threshold: 512, MemBuckets: cmsBuckets, D: cmsRows,
			},
			{
				Name: "seen", Attribute: controlplane.AttrExistence,
				Param:      controlplane.ParamSpec{Kind: controlplane.ParamFlowKey, Key: packet.KeyFiveTuple},
				MemBuckets: cmsBuckets, D: cmsRows,
			},
			{
				Name: "queue", Key: packet.KeyFiveTuple, Attribute: controlplane.AttrMax,
				Param:      controlplane.ParamSpec{Kind: controlplane.ParamQueueLength},
				MemBuckets: cmsBuckets, D: cmsRows,
			},
		}
	case w.daemons > 0:
		return []controlplane.TaskSpec{freqSpec(epochTask)}
	default:
		specs := make([]controlplane.TaskSpec, 9)
		for i := range specs {
			specs[i] = freqSpec("load")
		}
		return specs
	}
}

// Churn schedule. The structure and the sizes are fixed, so the share of
// frames replayed on each path and the mix of mutation costs are the same
// for every seed; -seed draws only the filter prefix and the key. Sorted by
// cost the eleven mutations of a period are 4 adds, 3 resizes (8,192 to
// 16,384 buckets) and 4 removals of a 16,384-bucket task: the op median is
// the median resize and the 90th percentile sits well inside the
// removals, not on a border between two kinds where noise could tip it. Slot 3 is the probabilistic task: while
// it is alive (between steps 5 and 6) the snapshot is not
// frame-vectorisable and the replay takes the per-frame decode fallback:
// one segment in eleven, about a fifth of a round's replay time.
type churnOp uint8

const (
	churnAdd churnOp = iota
	churnResize
	churnRemove
)

type churnStep struct {
	op   churnOp
	slot int
}

const probSlot = 3

var churnPattern = []churnStep{
	{churnAdd, 0}, {churnAdd, 1}, {churnResize, 0}, {churnAdd, 2}, {churnRemove, 0},
	{churnAdd, probSlot}, {churnRemove, probSlot}, {churnResize, 1},
	{churnRemove, 1}, {churnResize, 2}, {churnRemove, 2},
}

var churnKeys = []packet.KeySpec{packet.KeySrcIP, packet.KeyDstIP, packet.KeyIPPair, packet.KeyFiveTuple}

const (
	churnBuckets   = 8192  // buckets per row of an added churn task
	churnResizedTo = 16384 // and after its resize; the probabilistic task starts there
)
