// Congestion detection (Table 1): Max(QueueLength) per flow with
// FlyMon-SuMax(Max), plus the combinatorial maximum inter-arrival-time
// task (§4) that chains three CMUs across three CMU Groups.
package main

import (
	"fmt"
	"log"
	"sort"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 4, Buckets: 65536, BitWidth: 32, Workers: 1,
	})

	congestion, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "congestion", Key: packet.KeyIPPair,
		Attribute:  controlplane.AttrMax,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamQueueLength},
		MemBuckets: 16384, D: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	hol, err := ctrl.AddTask(controlplane.TaskSpec{
		Name: "max-interarrival", Key: packet.KeyFiveTuple,
		Attribute:  controlplane.AttrMax,
		Param:      controlplane.ParamSpec{Kind: controlplane.ParamPacketInterval},
		MemBuckets: 16384,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s (groups %v) and %s (groups %v)\n",
		congestion.Algorithm, congestion.Groups, hol.Algorithm, hol.Groups)

	tr := trace.Generate(trace.Config{Flows: 4000, Packets: 200_000, Seed: 31})
	exactQ := sketch.NewExactMax(packet.KeyIPPair)
	exactIv := sketch.NewExactMaxInterval(packet.KeyFiveTuple)
	ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
	for i := range tr.Packets {
		exactQ.Add(&tr.Packets[i], tr.Packets[i].QueueLength)
		exactIv.AddPacket(&tr.Packets[i])
	}

	// Report the 5 most congested IP pairs.
	type entry struct {
		k packet.CanonicalKey
		v uint64
	}
	var worst []entry
	for k, v := range exactQ.Values() {
		worst = append(worst, entry{k, v})
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].v > worst[j].v })
	fmt.Println("most congested IP pairs (estimate vs truth, queue depth):")
	for i := 0; i < 5 && i < len(worst); i++ {
		est, err := ctrl.EstimateKey(congestion.ID, worst[i].k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  est %3.0f  truth %3d\n", est, worst[i].v)
	}

	// Spot-check the inter-arrival task on the flows with the largest
	// true gaps.
	var gaps []entry
	for k, v := range exactIv.Values() {
		if v > 0 {
			gaps = append(gaps, entry{k, v})
		}
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].v > gaps[j].v })
	fmt.Println("largest inter-arrival gaps (estimate vs truth, ms):")
	for i := 0; i < 5 && i < len(gaps); i++ {
		est, err := ctrl.EstimateKey(hol.ID, gaps[i].k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  est %8.1f  truth %8.1f\n", est/1000, float64(gaps[i].v)/1e6)
	}
}
