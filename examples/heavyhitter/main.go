// Heavy-hitter detection: the paper's §1 troubleshooting story. An
// operator suspecting congestion deploys a heavy-hitter task on the fly,
// replays traffic, and reads back the elephant flows — then swaps the
// implementation from FlyMon-CMS to the more memory-efficient
// FlyMon-SuMax(Sum) without reloading anything.
package main

import (
	"fmt"
	"log"
	"sort"

	"flymon/internal/controlplane"
	"flymon/internal/metrics"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	const threshold = 256

	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 3, Buckets: 65536, BitWidth: 32, Workers: 1,
	})

	// Workload with a heavy tail.
	tr := trace.Generate(trace.Config{Flows: 8000, Packets: 400_000, ZipfS: 1.3, Seed: 3})
	frames := mmtrace.FromPackets(tr.Packets)
	exact := sketch.NewExactFrequency(packet.KeyFiveTuple)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}
	truth := exact.HeavyHitters(threshold)
	fmt.Printf("ground truth: %d heavy hitters (≥%d packets) among %d flows\n",
		len(truth), threshold, exact.Flows())

	run := func(alg controlplane.Algorithm) {
		task, err := ctrl.AddTask(controlplane.TaskSpec{
			Name: "heavy-hitters", Key: packet.KeyFiveTuple,
			Attribute: controlplane.AttrFrequency, Threshold: threshold,
			MemBuckets: 8192, D: 3, Algorithm: alg,
		})
		if err != nil {
			log.Fatal(err)
		}
		ctrl.ReplayTrace(frames)
		candidates := make([]packet.CanonicalKey, 0, exact.Flows())
		universe := make(map[packet.CanonicalKey]bool)
		for k := range exact.Counts() {
			candidates = append(candidates, k)
			universe[k] = true
		}
		reported, err := ctrl.Reported(task.ID, candidates)
		if err != nil {
			log.Fatal(err)
		}
		cls := metrics.Classify(universe, truth, reported)
		fmt.Printf("%-22s reported %d, F1 %.3f (precision %.3f, recall %.3f)\n",
			task.Algorithm, len(reported), cls.F1(), cls.Precision(), cls.Recall())

		// Show the top 5 reported flows by estimate.
		type hh struct {
			k packet.CanonicalKey
			v float64
		}
		var tops []hh
		for k := range reported {
			v, _ := ctrl.EstimateKey(task.ID, k)
			tops = append(tops, hh{k, v})
		}
		sort.Slice(tops, func(i, j int) bool { return tops[i].v > tops[j].v })
		for i := 0; i < len(tops) && i < 5; i++ {
			fmt.Printf("   top-%d flow estimate %.0f (truth %d)\n",
				i+1, tops[i].v, exact.Counts()[tops[i].k])
		}
		if err := ctrl.RemoveTask(task.ID); err != nil {
			log.Fatal(err)
		}
	}

	// On-the-fly algorithm swap: same task abstraction, two implementations.
	run(controlplane.AlgCMS)
	run(controlplane.AlgSuMaxSum)
}
