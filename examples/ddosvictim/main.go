// DDoS-victim detection (Table 1 / §4): a multi-key distinct-counting task
// — count distinct source IPs per destination IP and report destinations
// over a threshold — deployed at runtime as FlyMon-BeauCoup on one CMU
// Group's three coupon tables.
package main

import (
	"fmt"
	"log"

	"flymon/internal/controlplane"
	"flymon/internal/mmtrace"
	"flymon/internal/packet"
	"flymon/internal/sketch"
	"flymon/internal/trace"
)

func main() {
	const threshold = 512

	ctrl := controlplane.NewController(controlplane.Config{
		Groups: 1, Buckets: 65536, BitWidth: 32, Workers: 1,
	})

	task, err := ctrl.AddTask(controlplane.TaskSpec{
		Name:      "ddos-victims",
		Key:       packet.KeyDstIP,
		Attribute: controlplane.AttrDistinct,
		Param: controlplane.ParamSpec{
			Kind: controlplane.ParamFlowKey, Key: packet.KeySrcIP,
		},
		Threshold:  threshold,
		MemBuckets: 16384,
		D:          3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s (task %d): Distinct(SrcIP) per DstIP, threshold %d\n",
		task.Algorithm, task.ID, threshold)

	// Background traffic plus two attacks: one real victim (4096 sources)
	// and one below-threshold scare (128 sources).
	tr := trace.Generate(trace.Config{Flows: 6000, Packets: 250_000, Seed: 11})
	victim := packet.IPv4(192, 0, 2, 80)
	decoy := packet.IPv4(192, 0, 2, 81)
	tr.InjectDDoS(victim, 4096, 2, 12)
	tr.InjectDDoS(decoy, 128, 2, 13)

	ctrl.ReplayTrace(mmtrace.FromPackets(tr.Packets))
	exact := sketch.NewExactDistinct(packet.KeyDstIP, packet.KeySrcIP)
	for i := range tr.Packets {
		exact.AddPacket(&tr.Packets[i])
	}

	candidates := make([]packet.CanonicalKey, 0)
	for k := range exact.Counts() {
		candidates = append(candidates, k)
	}
	reported, err := ctrl.Reported(task.ID, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reported %d victim(s)\n", len(reported))

	for _, dst := range []struct {
		name string
		ip   uint32
	}{{"victim", victim}, {"decoy", decoy}} {
		name, ip := dst.name, dst.ip
		k := packet.KeyDstIP.Extract(&packet.Packet{DstIP: ip})
		est, err := ctrl.EstimateKey(task.ID, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %s: reported=%v, coupon estimate ≈ %.0f distinct sources (truth %d)\n",
			name, packet.FormatIPv4(ip), reported[k], est, exact.Count(k))
	}
}
