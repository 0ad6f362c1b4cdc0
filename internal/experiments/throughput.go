package experiments

import (
	"runtime"
	"time"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/trace"
)

// Throughput measures the data-plane packet rate of a fully loaded 9-group
// pipeline (27 CMUs, one CMS task per CMU triple) on the frame engine over
// a sweep of pool widths — the multi-pipe scaling the lock-free fast path
// (RCU snapshots + atomic registers + per-worker contexts) buys. It is not
// a figure of the paper; it quantifies this reproduction's "runs as fast
// as the hardware allows" claim. The configuration is the repo benchmark's
// ingest_steady workload, so the Workers=1 row — the per-core baseline the
// speedups are relative to — reads against that workload's pkts_per_s.
//
// Each width gets its own controller with Config.Workers set to it (the
// only worker-count knob); workers caps the sweep (0 sweeps
// 1..GOMAXPROCS doubling). With sharded set, the controllers run in
// sharded-state mode: each worker writes a private register lane with
// plain stores and queries reduce the lanes, replacing the contended
// atomic on hot buckets.
func Throughput(scale Scale, seed int64, workers int, sharded bool) *Table {
	_, packets := scale.workload()
	maxW := workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	frames := mmtrace.FromPackets(
		trace.Generate(trace.Config{Flows: 6000, Packets: packets, Seed: seed}).Packets)

	title := "Throughput — frame engine, shared atomic registers, vs pool width (9 groups, 27 CMUs loaded)"
	if sharded {
		title = "Throughput — frame engine, sharded register lanes, vs pool width (9 groups, 27 CMUs loaded)"
	}
	t := &Table{
		Title:  title,
		Header: []string{"Workers", "Mpps", "ns/pkt", "Speedup"},
	}
	var base float64
	for w := 1; w <= maxW; w *= 2 {
		ctrl := controlplane.NewController(controlplane.Config{
			Groups: 9, Buckets: 65536, BitWidth: 32, Workers: w, ShardedState: sharded,
		})
		for g := 0; g < 9; g++ {
			if _, err := ctrl.AddTask(controlplane.TaskSpec{
				Name: "load", Key: packet.KeyFiveTuple,
				Attribute: controlplane.AttrFrequency, MemBuckets: 16384, D: 3,
			}); err != nil {
				panic(err)
			}
		}
		ctrl.ReplayTrace(frames) // warm once, then time the replay
		start := time.Now()
		ctrl.ReplayTrace(frames)
		elapsed := time.Since(start)
		ctrl.DrainShards()
		ctrl.Close()
		mpps := float64(frames.Frames()) / elapsed.Seconds() / 1e6
		if w == 1 {
			base = mpps
		}
		t.Rows = append(t.Rows, []string{itoa(w), f2(mpps), f2(1e3 / mpps), f2(mpps/base) + "x"})
	}
	t.Notes = append(t.Notes,
		"the Workers=1 row is the per-core baseline: same task load and engine as the repo benchmark's ingest_steady workload, whose pkts_per_s (go run -C bench . -workload ingest_steady) is the accepted figure; this table is a one-shot reading",
		"reconfiguration never stalls this path: the control plane publishes immutable config snapshots (RCU)")
	if sharded {
		t.Notes = append(t.Notes,
			"mergeable ops (saturating add, max, or, xor) write per-worker lanes with plain stores; queries fold lanes exactly",
			"non-mergeable rules fall back to the shared atomic path automatically")
	} else {
		t.Notes = append(t.Notes,
			"per-bucket register updates are atomic; counts stay exact under any interleaving")
	}
	return t
}
